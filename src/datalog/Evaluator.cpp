//===- datalog/Evaluator.cpp - Semi-naïve Datalog evaluation -----------------===//
//
// Part of egglog-cpp. See Evaluator.h for an overview.
//
//===----------------------------------------------------------------------===//

#include "datalog/Evaluator.h"

#include "support/Timer.h"

#include <cctype>
#include <unordered_map>

using namespace egglog;
using namespace egglog::datalog;

//===----------------------------------------------------------------------===
// Rule parsing
//===----------------------------------------------------------------------===

namespace {

/// Minimal tokenizer for the classic Datalog rule syntax.
class RuleParser {
public:
  RuleParser(const std::string &Text) : Text(Text) {}

  bool parse(DatalogRule &Rule, std::string &Error) {
    std::unordered_map<std::string, uint32_t> Vars;
    if (!parseAtom(Rule.Head, Vars, Error))
      return false;
    skipSpace();
    if (match(":-")) {
      while (true) {
        Atom Body;
        if (!parseAtom(Body, Vars, Error))
          return false;
        Rule.Body.push_back(std::move(Body));
        skipSpace();
        if (match(","))
          continue;
        break;
      }
    }
    skipSpace();
    if (!match(".")) {
      Error = "expected '.' at end of rule";
      return false;
    }
    Rule.NumVars = static_cast<uint32_t>(Vars.size());
    return true;
  }

private:
  const std::string &Text;
  size_t Pos = 0;

  void skipSpace() {
    while (Pos < Text.size() &&
           std::isspace(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
  }

  bool match(const std::string &Token) {
    skipSpace();
    if (Text.compare(Pos, Token.size(), Token) == 0) {
      Pos += Token.size();
      return true;
    }
    return false;
  }

  bool parseAtom(Atom &Out, std::unordered_map<std::string, uint32_t> &Vars,
                 std::string &Error) {
    skipSpace();
    size_t Start = Pos;
    while (Pos < Text.size() &&
           (std::isalnum(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '_'))
      ++Pos;
    if (Pos == Start) {
      Error = "expected a relation name";
      return false;
    }
    Out.Rel = Text.substr(Start, Pos - Start);
    if (!match("(")) {
      Error = "expected '(' after relation name";
      return false;
    }
    while (true) {
      skipSpace();
      size_t TermStart = Pos;
      while (Pos < Text.size() &&
             (std::isalnum(static_cast<unsigned char>(Text[Pos])) ||
              Text[Pos] == '_'))
        ++Pos;
      if (Pos == TermStart) {
        Error = "expected a term";
        return false;
      }
      std::string Token = Text.substr(TermStart, Pos - TermStart);
      Term T;
      if (std::isdigit(static_cast<unsigned char>(Token[0]))) {
        T.IsVar = false;
        T.Const = static_cast<Val>(std::stoul(Token));
      } else {
        T.IsVar = true;
        auto [It, Fresh] =
            Vars.emplace(Token, static_cast<uint32_t>(Vars.size()));
        T.Var = It->second;
      }
      Out.Terms.push_back(T);
      if (match(","))
        continue;
      if (match(")"))
        return true;
      Error = "expected ',' or ')' in atom";
      return false;
    }
  }
};

} // namespace

bool Evaluator::addRule(const std::string &Text) {
  DatalogRule Rule;
  RuleParser Parser(Text);
  if (!Parser.parse(Rule, ErrorMsg))
    return false;
  return addRule(std::move(Rule));
}

bool Evaluator::addRule(DatalogRule Rule) {
  // Validate relations, arities, and head-variable boundedness.
  auto CheckAtom = [&](const Atom &A, bool IsHead) {
    if (!DB.exists(A.Rel)) {
      ErrorMsg = "unknown relation '" + A.Rel + "'";
      return false;
    }
    unsigned Arity = (DB.isEqRel(A.Rel) || DB.isEqRelRepr(A.Rel))
                         ? 2
                         : DB.relation(A.Rel).arity();
    if (A.Terms.size() != Arity) {
      ErrorMsg = "arity mismatch on '" + A.Rel + "'";
      return false;
    }
    (void)IsHead;
    return true;
  };
  if (!CheckAtom(Rule.Head, true))
    return false;
  if (DB.isEqRelRepr(Rule.Head.Rel)) {
    ErrorMsg = "representative relations are read-only";
    return false;
  }
  std::vector<bool> Bound(Rule.NumVars, false);
  for (const Atom &A : Rule.Body) {
    if (!CheckAtom(A, false))
      return false;
    for (const Term &T : A.Terms)
      if (T.IsVar)
        Bound[T.Var] = true;
  }
  for (const Term &T : Rule.Head.Terms) {
    if (T.IsVar && !Bound[T.Var]) {
      ErrorMsg = "unbound variable in rule head";
      return false;
    }
  }
  Rules.push_back(std::move(Rule));
  return true;
}

//===----------------------------------------------------------------------===
// Index maintenance
//===----------------------------------------------------------------------===

namespace {
uint64_t hashBoundColumns(const std::vector<Val> &Row, uint32_t Mask) {
  uint64_t Hash = 1469598103934665603ull;
  for (size_t I = 0; I < Row.size(); ++I) {
    if (Mask & (1u << I)) {
      Hash ^= hashMix(Row[I]);
      Hash *= 1099511628211ull;
    }
  }
  return Hash;
}
} // namespace

void Evaluator::extendIndex(const std::string &Rel, uint32_t Mask,
                            ColIndex &Index) {
  const Relation &R = DB.relation(Rel);
  const auto &Rows = R.all();
  for (size_t I = Index.Built; I < Rows.size(); ++I)
    Index.Buckets[hashBoundColumns(Rows[I], Mask)].push_back(
        static_cast<uint32_t>(I));
  Index.Built = Rows.size();
}

//===----------------------------------------------------------------------===
// Join execution
//===----------------------------------------------------------------------===

void Evaluator::emitHead(const DatalogRule &Rule,
                         const std::vector<std::optional<Val>> &Env) {
  const Atom &Head = Rule.Head;
  std::vector<Val> Tuple(Head.Terms.size());
  for (size_t I = 0; I < Head.Terms.size(); ++I) {
    const Term &T = Head.Terms[I];
    Tuple[I] = T.IsVar ? *Env[T.Var] : T.Const;
  }
  if (DB.isEqRel(Head.Rel))
    DB.eqrel(Head.Rel).insert(Tuple[0], Tuple[1]);
  else
    DB.relation(Head.Rel).insert(Tuple);
}

bool Evaluator::checkDeadline() {
  if (Cancelled)
    return true;
  if (DeadlineSeconds <= 0 || (++StepCount & 0xFFF) != 0)
    return false;
  const Timer *Clock = static_cast<const Timer *>(DeadlineClock);
  if (Clock->seconds() > DeadlineSeconds)
    Cancelled = true;
  return Cancelled;
}

void Evaluator::joinFrom(const DatalogRule &Rule, size_t AtomIndex,
                         size_t DeltaAtom,
                         std::vector<std::optional<Val>> &Env) {
  if (checkDeadline())
    return;
  if (AtomIndex == Rule.Body.size()) {
    emitHead(Rule, Env);
    return;
  }
  const Atom &A = Rule.Body[AtomIndex];

  //=== representative atoms: (element, canonical representative). ========
  if (EqRel *Repr = DB.reprTarget(A.Rel)) {
    const Term &T0 = A.Terms[0], &T1 = A.Terms[1];
    auto ValueOf = [&](const Term &T) -> std::optional<Val> {
      if (!T.IsVar)
        return T.Const;
      return Env[T.Var];
    };
    auto BindOne = [&](const Term &T, Val V, auto Continue) {
      if (!T.IsVar) {
        if (T.Const == V)
          Continue();
        return;
      }
      if (Env[T.Var].has_value()) {
        if (*Env[T.Var] == V)
          Continue();
        return;
      }
      Env[T.Var] = V;
      Continue();
      Env[T.Var].reset();
    };
    auto Recurse = [&] { joinFrom(Rule, AtomIndex + 1, DeltaAtom, Env); };
    auto EmitPair = [&](Val Element, Val Rep) {
      BindOne(T0, Element, [&] { BindOne(T1, Rep, Recurse); });
    };
    std::optional<Val> V0 = ValueOf(T0);

    if (AtomIndex == DeltaAtom) {
      // Delta: the absorbed members of each recent merge changed their
      // representative. The delta events change only at advance(), so
      // they are safe to iterate while the head inserts.
      for (const EqRel::MergeEvent &Event : Repr->deltaEvents()) {
        Val Rep = Repr->find(Event.Root);
        for (Val Absorbed : Event.Absorbed)
          EmitPair(Absorbed, Rep);
      }
      return;
    }
    if (V0) {
      if (*V0 < Repr->numElements())
        EmitPair(*V0, Repr->find(*V0));
      return;
    }
    std::optional<Val> V1 = ValueOf(T1);
    if (V1) {
      // Enumerate the class of the bound representative (empty when the
      // bound value is stale, i.e. no longer canonical).
      if (*V1 < Repr->numElements() && Repr->find(*V1) == *V1)
        for (Val M : Repr->members(*V1))
          EmitPair(M, *V1);
      return;
    }
    for (Val Element = 0; Element < Repr->numElements(); ++Element)
      EmitPair(Element, Repr->find(Element));
    return;
  }

  //=== eqrel atoms: class-based enumeration. ==============================
  if (DB.isEqRel(A.Rel)) {
    EqRel &Eq = DB.eqrel(A.Rel);
    const Term &T0 = A.Terms[0], &T1 = A.Terms[1];
    auto ValueOf = [&](const Term &T) -> std::optional<Val> {
      if (!T.IsVar)
        return T.Const;
      return Env[T.Var];
    };
    std::optional<Val> V0 = ValueOf(T0), V1 = ValueOf(T1);
    auto BindAndRecurse = [&](const Term &T, Val V) {
      if (!T.IsVar) {
        if (T.Const == V)
          joinFrom(Rule, AtomIndex + 1, DeltaAtom, Env);
        return;
      }
      bool Fresh = !Env[T.Var].has_value();
      if (!Fresh) {
        if (*Env[T.Var] == V)
          joinFrom(Rule, AtomIndex + 1, DeltaAtom, Env);
        return;
      }
      Env[T.Var] = V;
      joinFrom(Rule, AtomIndex + 1, DeltaAtom, Env);
      Env[T.Var].reset();
    };
    auto BindPair = [&](Val A0, Val A1) {
      if (!T0.IsVar) {
        if (T0.Const != A0)
          return;
        BindAndRecurse(T1, A1);
        return;
      }
      bool Fresh = !Env[T0.Var].has_value();
      if (!Fresh) {
        if (*Env[T0.Var] == A0)
          BindAndRecurse(T1, A1);
        return;
      }
      Env[T0.Var] = A0;
      BindAndRecurse(T1, A1);
      Env[T0.Var].reset();
    };

    if (AtomIndex == DeltaAtom) {
      // Delta semantics: enumerate only the pairs that became equivalent
      // in the last iteration, reconstructed from the merge events. A pair
      // is new iff it connects an absorbed member with the rest of its new
      // class; supersets are harmless (duplicates dedupe downstream).
      // The delta events change only at advance(), so they are safe to
      // iterate while the head inserts.
      for (const EqRel::MergeEvent &Event : Eq.deltaEvents()) {
        Val Root = Eq.find(Event.Root);
        if (V0) {
          if (Eq.find(*V0) != Root)
            continue;
          bool InAbsorbed = std::binary_search(Event.Absorbed.begin(),
                                               Event.Absorbed.end(), *V0);
          const std::vector<Val> &Partners =
              InAbsorbed ? Eq.members(Root) : Event.Absorbed;
          for (Val M : Partners)
            BindAndRecurse(T1, M);
          continue;
        }
        std::vector<Val> Classmates = Eq.members(Root);
        for (Val Absorbed : Event.Absorbed) {
          for (Val M : Classmates) {
            BindPair(Absorbed, M);
            BindPair(M, Absorbed);
          }
        }
      }
      return;
    }

    if (V0 && V1) {
      if (Eq.same(*V0, *V1))
        joinFrom(Rule, AtomIndex + 1, DeltaAtom, Env);
      return;
    }
    if (V0) {
      for (Val M : Eq.members(*V0))
        BindAndRecurse(T1, M);
      return;
    }
    if (V1) {
      for (Val M : Eq.members(*V1))
        BindAndRecurse(T0, M);
      return;
    }
    // Both free: enumerate every represented pair (the quadratic case).
    for (Val E : Eq.allElements()) {
      if (!T0.IsVar)
        continue;
      Env[T0.Var] = E;
      for (Val M : Eq.members(E))
        BindAndRecurse(T1, M);
      Env[T0.Var].reset();
    }
    return;
  }

  //=== explicit relations: indexed or scanning access. ====================
  Relation &R = DB.relation(A.Rel);
  const auto &Rows = R.all();
  size_t Lo = 0, Hi = Rows.size();
  if (AtomIndex == DeltaAtom) {
    Lo = R.deltaStart();
  } else if (DeltaAtom != SIZE_MAX && AtomIndex < DeltaAtom) {
    Hi = R.deltaStart();
  }

  // Mask of columns already bound (constants or bound variables).
  uint32_t Mask = 0;
  std::vector<Val> Probe(A.Terms.size(), 0);
  for (size_t I = 0; I < A.Terms.size(); ++I) {
    const Term &T = A.Terms[I];
    if (!T.IsVar) {
      Mask |= (1u << I);
      Probe[I] = T.Const;
    } else if (Env[T.Var].has_value()) {
      Mask |= (1u << I);
      Probe[I] = *Env[T.Var];
    }
  }

  auto TryRow = [&](const std::vector<Val> &Row) {
    // Bind / check each column, tracking which variables this atom binds
    // fresh so they can be unwound.
    uint32_t FreshMask = 0;
    bool Alive = true;
    for (size_t I = 0; I < A.Terms.size() && Alive; ++I) {
      const Term &T = A.Terms[I];
      if (!T.IsVar) {
        Alive = T.Const == Row[I];
      } else if (Env[T.Var].has_value()) {
        Alive = *Env[T.Var] == Row[I];
      } else {
        Env[T.Var] = Row[I];
        FreshMask |= (1u << I);
      }
    }
    if (Alive)
      joinFrom(Rule, AtomIndex + 1, DeltaAtom, Env);
    for (size_t I = 0; I < A.Terms.size(); ++I)
      if (FreshMask & (1u << I))
        Env[A.Terms[I].Var].reset();
  };

  if (Mask != 0) {
    ColIndex &Index = Indexes[A.Rel][Mask];
    extendIndex(A.Rel, Mask, Index);
    auto It = Index.Buckets.find(hashBoundColumns(Probe, Mask));
    if (It == Index.Buckets.end())
      return;
    for (uint32_t RowIdx : It->second) {
      if (RowIdx < Lo || RowIdx >= Hi)
        continue;
      TryRow(Rows[RowIdx]);
    }
    return;
  }
  for (size_t I = Lo; I < Hi; ++I)
    TryRow(Rows[I]);
}

void Evaluator::runRuleVariant(const DatalogRule &Rule, size_t DeltaAtom) {
  std::vector<std::optional<Val>> Env(Rule.NumVars);
  joinFrom(Rule, 0, DeltaAtom, Env);
}

//===----------------------------------------------------------------------===
// Fixpoint loop
//===----------------------------------------------------------------------===

EvalStats Evaluator::run(const EvalOptions &Options) {
  EvalStats Stats;
  Timer Total;
  DeadlineSeconds = Options.TimeoutSeconds;
  DeadlineClock = &Total;
  Cancelled = false;
  StepCount = 0;

  // Make initial facts visible as the first delta.
  DB.advanceAll();

  bool First = true;
  while (true) {
    ++Stats.Iterations;
    for (size_t R = 0; R < Rules.size(); ++R) {
      const DatalogRule &Rule = Rules[R];
      if (Rule.Body.empty()) {
        if (First)
          runRuleVariant(Rule, SIZE_MAX);
        continue;
      }
      if (!Options.SemiNaive || First) {
        runRuleVariant(Rule, SIZE_MAX);
      } else {
        // One delta variant per body atom, eqrel atoms included (their
        // delta is the set of newly equivalent pairs).
        for (size_t J = 0; J < Rule.Body.size(); ++J)
          runRuleVariant(Rule, J);
      }
      if (Cancelled || (Options.TimeoutSeconds > 0 &&
                        Total.seconds() > Options.TimeoutSeconds)) {
        Stats.TimedOut = true;
        Stats.Seconds = Total.seconds();
        return Stats;
      }
    }
    First = false;
    bool Grew = DB.advanceAll();
    if (!Grew)
      break;
    if (Options.MaxIterations && Stats.Iterations >= Options.MaxIterations)
      break;
  }
  Stats.Seconds = Total.seconds();
  return Stats;
}
