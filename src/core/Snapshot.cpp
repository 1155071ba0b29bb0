//===- core/Snapshot.cpp - Versioned on-disk database snapshots ----------===//
//
// Part of egglog-cpp. See DESIGN.md "Snapshot format and crash safety".
//
// Layout (all integers little-endian):
//
//   magic "EGLSNAP1" (8) | version u32 | flags u32 | sectionCount u32
//   9 sections, each: id u32 | payloadLen u64 | payload | crc32c(payload)
//   crc32c of every preceding byte (u32)
//
// Section ids, in required order: 1 META, 2 SORTS, 3 PRIMS, 4 STRINGS,
// 5 RATIONALS, 6 UNIONFIND, 7 SETS, 8 FUNCTIONS, 9 TABLES. Each later
// section may only reference entities counted by earlier ones, so the
// loader validates every cross-reference the moment it reads it.
//
// The loader treats the file as untrusted: every read is bounds-checked
// against its section span, no count is ever used as an allocation size
// (vectors grow element by element, so a hostile count fails at the first
// out-of-bounds read instead of allocating), and all content is staged
// into fresh structures. The live EGraph is mutated only in the install
// phase at the very end — append-only declarations first (undone by the
// caller's transaction rollback if a later step fails), then a noexcept
// wholesale content swap (EGraph::adoptContent) as the point of no
// return.
//
//===----------------------------------------------------------------------===//

#include "core/Snapshot.h"

#include "core/EGraph.h"
#include "support/Crc32c.h"
#include "support/FailPoints.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

namespace egglog {

namespace {

const char SnapshotMagic[8] = {'E', 'G', 'L', 'S', 'N', 'A', 'P', '1'};
constexpr uint32_t SnapshotVersion = 1;
constexpr uint32_t NumSections = 9;

enum SectionId : uint32_t {
  SecMeta = 1,
  SecSorts = 2,
  SecPrims = 3,
  SecStrings = 4,
  SecRationals = 5,
  SecUnionFind = 6,
  SecSets = 7,
  SecFunctions = 8,
  SecTables = 9,
};

const char *sectionName(uint32_t Id) {
  switch (Id) {
  case SecMeta:
    return "meta";
  case SecSorts:
    return "sorts";
  case SecPrims:
    return "primitives";
  case SecStrings:
    return "strings";
  case SecRationals:
    return "rationals";
  case SecUnionFind:
    return "union-find";
  case SecSets:
    return "sets";
  case SecFunctions:
    return "functions";
  case SecTables:
    return "tables";
  }
  return "?";
}

/// Typed-expression tree limits for hostile inputs: recursion is bounded
/// so a deep chain cannot blow the loader's stack, and the total node
/// count per declaration is bounded so nested duplication cannot balloon.
constexpr unsigned MaxExprDepth = 200;
constexpr uint64_t MaxExprNodes = 1u << 20;

bool ioFail(EggError &Err, const std::string &Message) {
  Err = EggError{ErrKind::IO, Message, 0, 0};
  return false;
}

//===----------------------------------------------------------------------===
// Serialization primitives
//===----------------------------------------------------------------------===

struct ByteSink {
  std::vector<uint8_t> Bytes;

  void putU8(uint8_t V) { Bytes.push_back(V); }
  void putU32(uint32_t V) {
    for (int I = 0; I < 4; ++I)
      Bytes.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }
  void putU64(uint64_t V) {
    for (int I = 0; I < 8; ++I)
      Bytes.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }
  void putString(const std::string &S) {
    putU32(static_cast<uint32_t>(S.size()));
    Bytes.insert(Bytes.end(), S.begin(), S.end());
  }
  void putValue(Value V) {
    putU32(V.Sort);
    putU64(V.Bits);
  }
};

/// Bounds-checked cursor over one section's payload. Every accessor fails
/// (returns false, leaving outputs untouched) instead of reading past the
/// span; the section parsers propagate the failure as a truncation error.
struct SpanReader {
  const uint8_t *Data;
  size_t Len;
  size_t Off = 0;

  SpanReader(const uint8_t *Data, size_t Len) : Data(Data), Len(Len) {}

  size_t remaining() const { return Len - Off; }
  bool done() const { return Off == Len; }

  bool readU8(uint8_t &Out) {
    if (remaining() < 1)
      return false;
    Out = Data[Off++];
    return true;
  }
  bool readU32(uint32_t &Out) {
    if (remaining() < 4)
      return false;
    Out = 0;
    for (int I = 0; I < 4; ++I)
      Out |= static_cast<uint32_t>(Data[Off + I]) << (8 * I);
    Off += 4;
    return true;
  }
  bool readU64(uint64_t &Out) {
    if (remaining() < 8)
      return false;
    Out = 0;
    for (int I = 0; I < 8; ++I)
      Out |= static_cast<uint64_t>(Data[Off + I]) << (8 * I);
    Off += 8;
    return true;
  }
  bool readString(std::string &Out) {
    uint32_t N;
    if (!readU32(N) || remaining() < N)
      return false;
    Out.assign(reinterpret_cast<const char *>(Data + Off), N);
    Off += N;
    return true;
  }
  bool readValue(Value &Out) {
    return readU32(Out.Sort) && readU64(Out.Bits);
  }
};

//===----------------------------------------------------------------------===
// Writer
//===----------------------------------------------------------------------===

void writeExpr(ByteSink &Sink, const TypedExpr &E) {
  Sink.putU8(static_cast<uint8_t>(E.ExprKind));
  Sink.putU32(E.Type);
  switch (E.ExprKind) {
  case TypedExpr::Kind::Var:
    Sink.putU32(E.Index);
    break;
  case TypedExpr::Kind::Lit:
    Sink.putValue(E.Literal);
    break;
  case TypedExpr::Kind::FuncCall:
  case TypedExpr::Kind::PrimCall:
    Sink.putU32(E.Index);
    Sink.putU32(static_cast<uint32_t>(E.Args.size()));
    for (const TypedExpr &Arg : E.Args)
      writeExpr(Sink, Arg);
    break;
  }
}

void appendSection(std::vector<uint8_t> &File, uint32_t Id,
                   const ByteSink &Payload) {
  ByteSink Header;
  Header.putU32(Id);
  Header.putU64(Payload.Bytes.size());
  File.insert(File.end(), Header.Bytes.begin(), Header.Bytes.end());
  File.insert(File.end(), Payload.Bytes.begin(), Payload.Bytes.end());
  uint32_t Crc = crc32c(Payload.Bytes.data(), Payload.Bytes.size());
  ByteSink Trailer;
  Trailer.putU32(Crc);
  File.insert(File.end(), Trailer.Bytes.begin(), Trailer.Bytes.end());
}

std::vector<uint8_t> serializeDatabase(const EGraph &G) {
  std::vector<uint8_t> File;
  File.reserve(4096);
  File.insert(File.end(), SnapshotMagic, SnapshotMagic + 8);
  {
    ByteSink Head;
    Head.putU32(SnapshotVersion);
    Head.putU32(0); // flags
    Head.putU32(NumSections);
    File.insert(File.end(), Head.Bytes.begin(), Head.Bytes.end());
  }

  const UnionFind &UF = G.unionFind();

  // 1 META
  {
    ByteSink S;
    S.putU32(G.timestamp());
    S.putU8(G.needsRebuild() ? 1 : 0);
    S.putU64(UF.unionCount());
    S.putU64(0); // reserved slot (SnapMeta::Reserved)
    S.putU64(G.liveContentHash());
    S.putU64(G.liveTupleCount());
    appendSection(File, SecMeta, S);
  }

  // 2 SORTS
  {
    ByteSink S;
    const SortTable &Sorts = G.sorts();
    S.putU32(static_cast<uint32_t>(Sorts.size()));
    for (SortId Id = 0; Id < Sorts.size(); ++Id) {
      const SortInfo &Info = Sorts.info(Id);
      S.putU8(static_cast<uint8_t>(Info.Kind));
      S.putU32(Info.Kind == SortKind::Set ? Info.Element : 0);
      S.putString(Info.Name);
    }
    appendSection(File, SecSorts, S);
  }

  // 3 PRIMS: signatures only. The loader re-resolves every referenced
  // primitive by (name, argument sorts) against its own registry, so
  // primitive ids — which depend on declaration history — never leak
  // across processes as trusted indices.
  {
    ByteSink S;
    const PrimitiveRegistry &Prims = G.primitives();
    S.putU32(static_cast<uint32_t>(Prims.size()));
    for (uint32_t Id = 0; Id < Prims.size(); ++Id) {
      const Primitive &P = Prims.get(Id);
      S.putString(P.Name);
      S.putU32(static_cast<uint32_t>(P.ArgSorts.size()));
      for (SortId Arg : P.ArgSorts)
        S.putU32(Arg);
      S.putU32(P.OutSort);
    }
    appendSection(File, SecPrims, S);
  }

  // 4 STRINGS
  {
    ByteSink S;
    const StringInterner &Strings = G.strings();
    S.putU32(static_cast<uint32_t>(Strings.size()));
    for (uint32_t Id = 0; Id < Strings.size(); ++Id)
      S.putString(Strings.lookup(Id));
    appendSection(File, SecStrings, S);
  }

  // 5 RATIONALS: decimal strings, the one representation BigInt can both
  // emit and re-validate exactly.
  {
    ByteSink S;
    const auto &Rationals = G.rationals();
    S.putU32(static_cast<uint32_t>(Rationals.size()));
    for (uint32_t Id = 0; Id < Rationals.size(); ++Id) {
      const Rational &R = Rationals.lookup(Id);
      if (!R.isFinite()) {
        S.putU8(R.isNegative() ? 2 : 1);
        continue;
      }
      S.putU8(0);
      S.putString(R.numerator().toString());
      S.putString(R.denominator().toString());
    }
    appendSection(File, SecRationals, S);
  }

  // 6 UNIONFIND
  {
    ByteSink S;
    S.putU64(UF.parents().size());
    for (uint64_t P : UF.parents())
      S.putU64(P);
    S.putU64(UF.dirty().size());
    for (uint64_t D : UF.dirty())
      S.putU64(D);
    appendSection(File, SecUnionFind, S);
  }

  // 7 SETS: interned element vectors in id order (inner sets intern
  // before the outer sets that contain them, so references always point
  // backwards).
  {
    ByteSink S;
    const auto &Sets = G.sets();
    S.putU32(static_cast<uint32_t>(Sets.size()));
    for (uint32_t Id = 0; Id < Sets.size(); ++Id) {
      const std::vector<Value> &Elements = Sets.lookup(Id);
      S.putU32(static_cast<uint32_t>(Elements.size()));
      for (Value V : Elements)
        S.putValue(V);
    }
    appendSection(File, SecSets, S);
  }

  // 8 FUNCTIONS
  {
    ByteSink S;
    S.putU32(static_cast<uint32_t>(G.numFunctions()));
    for (FunctionId F = 0; F < G.numFunctions(); ++F) {
      const FunctionDecl &Decl = G.function(F).Decl;
      S.putString(Decl.Name);
      S.putU32(static_cast<uint32_t>(Decl.ArgSorts.size()));
      for (SortId Arg : Decl.ArgSorts)
        S.putU32(Arg);
      S.putU32(Decl.OutSort);
      S.putU64(static_cast<uint64_t>(Decl.Cost));
      S.putU8(Decl.MergeExpr ? 1 : 0);
      if (Decl.MergeExpr)
        writeExpr(S, *Decl.MergeExpr);
      S.putU8(Decl.DefaultExpr ? 1 : 0);
      if (Decl.DefaultExpr)
        writeExpr(S, *Decl.DefaultExpr);
    }
    appendSection(File, SecFunctions, S);
  }

  // 9 TABLES: live rows only (dead rows are history, not content), with
  // their stamps so semi-naïve deltas survive the round trip.
  {
    ByteSink S;
    S.putU32(static_cast<uint32_t>(G.numFunctions()));
    for (FunctionId F = 0; F < G.numFunctions(); ++F) {
      const Table &T = *G.function(F).Storage;
      S.putU64(T.liveCount());
      unsigned Width = T.rowWidth();
      // The on-disk record stays row-major; the columnar table is
      // transposed at this boundary (a per-row gather), so snapshots from
      // before the layout change load unchanged.
      for (size_t Row : T.liveRows()) {
        S.putU32(T.stamp(Row));
        for (unsigned I = 0; I < Width; ++I)
          S.putValue(T.cell(Row, I));
      }
    }
    appendSection(File, SecTables, S);
  }

  uint32_t Whole = crc32c(File.data(), File.size());
  ByteSink Trailer;
  Trailer.putU32(Whole);
  File.insert(File.end(), Trailer.Bytes.begin(), Trailer.Bytes.end());
  return File;
}

/// Unlinks the tmp file on every exit path but a successful commit, so an
/// aborted write (I/O error, injected fault, crash before rename) leaves
/// only the previous snapshot on disk.
struct TmpFileGuard {
  std::string Path;
  bool Armed = true;
  ~TmpFileGuard() {
    if (Armed)
      std::remove(Path.c_str());
  }
};

struct FileCloser {
  std::FILE *F = nullptr;
  ~FileCloser() {
    if (F)
      std::fclose(F);
  }
};

bool writeFileAtomic(const std::string &Path,
                     const std::vector<uint8_t> &Bytes, EggError &Err) {
  std::string TmpPath = Path + ".tmp";
  TmpFileGuard Tmp{TmpPath};
  EGGLOG_FAILPOINT("snapshot.write");
  FileCloser File;
  File.F = std::fopen(TmpPath.c_str(), "wb");
  if (!File.F)
    return ioFail(Err, "cannot create '" + TmpPath + "'");
  // Stream in bounded chunks with a failpoint between each, so the fault
  // sweep proves every prefix of a partial write is recoverable.
  constexpr size_t ChunkBytes = 1 << 16;
  for (size_t Off = 0; Off < Bytes.size(); Off += ChunkBytes) {
    EGGLOG_FAILPOINT("snapshot.write");
    size_t N = std::min(ChunkBytes, Bytes.size() - Off);
    if (std::fwrite(Bytes.data() + Off, 1, N, File.F) != N)
      return ioFail(Err, "write failed for '" + TmpPath + "'");
  }
  EGGLOG_FAILPOINT("snapshot.write");
  if (std::fflush(File.F) != 0 || ::fsync(::fileno(File.F)) != 0)
    return ioFail(Err, "fsync failed for '" + TmpPath + "'");
  std::fclose(File.F);
  File.F = nullptr;
  EGGLOG_FAILPOINT("snapshot.write");
  if (std::rename(TmpPath.c_str(), Path.c_str()) != 0)
    return ioFail(Err, "cannot rename '" + TmpPath + "' to '" + Path + "'");
  Tmp.Armed = false;
  // Best-effort directory sync so the rename itself is durable; the data
  // was already fsynced, so a failure here cannot lose the old snapshot.
  size_t Slash = Path.find_last_of('/');
  std::string Dir =
      Slash == std::string::npos ? std::string(".") : Path.substr(0, Slash);
  int DirFd = ::open(Dir.c_str(), O_RDONLY);
  if (DirFd >= 0) {
    ::fsync(DirFd);
    ::close(DirFd);
  }
  return true;
}

//===----------------------------------------------------------------------===
// Loader: staging structures
//===----------------------------------------------------------------------===

struct SnapMeta {
  uint32_t Timestamp = 0;
  /// The writer's needsRebuild(); the loader checks that it agrees with the
  /// dirty worklist, which alone drives the adopted graph's rebuild.
  bool RebuildFlag = false;
  uint64_t UnionCount = 0;
  /// Written as 0. Snapshots of older writers hold a count bounded by
  /// UnionCount here, so the loader keeps that bound and the version.
  uint64_t Reserved = 0;
  uint64_t ContentHash = 0;
  uint64_t LiveTuples = 0;
};

struct SnapSort {
  SortKind Kind = SortKind::Unit;
  SortId Element = 0;
  std::string Name;
};

struct SnapPrim {
  std::string Name;
  std::vector<SortId> ArgSorts;
  SortId OutSort = 0;
};

struct SnapFunction {
  // Decl with *raw* snapshot ids in literal values and PrimCall indices;
  // remapped during install. Sort and function ids map identically (the
  // live database's declarations are a prefix of the snapshot's).
  FunctionDecl Decl;
};

/// Everything parsed and validated from the file, plus the id remapping
/// onto the live database. Pure staging: building one never mutates the
/// EGraph.
struct Staging {
  SnapMeta Meta;
  std::vector<SnapSort> Sorts;
  std::vector<SnapPrim> Prims;
  std::vector<std::string> Strings;
  std::vector<Rational> Rationals;
  std::vector<uint64_t> UFParents;
  std::vector<uint64_t> UFDirty;
  std::vector<std::vector<Value>> Sets; // raw snapshot element values
  std::vector<SnapFunction> Functions;
  std::vector<std::unique_ptr<Table>> Tables; // remapped cells

  // Snapshot interner id -> live (or provisional) interner id. Provisional
  // ids start at the live interner's current size and are realized, in
  // order, during install.
  std::vector<uint32_t> StringMap;
  std::vector<uint32_t> RationalMap;
  std::vector<uint32_t> SetMap;
  std::vector<std::string> PendingStrings;
  std::vector<Rational> PendingRationals;
  std::vector<std::vector<Value>> PendingSets; // remapped, re-sorted
  // Snapshot prim ids referenced by some merge/default expression; only
  // these are re-resolved against the live registry during install.
  std::vector<uint32_t> ReferencedPrims;
};

SortKind snapKind(const Staging &St, SortId Sort) {
  return St.Sorts[Sort].Kind;
}

/// Validates a raw snapshot value against the staged universe: known sort,
/// payload in range for that sort's kind.
bool validRawValue(const Staging &St, Value V, std::string &Why) {
  if (V.Sort >= St.Sorts.size()) {
    Why = "unknown sort id";
    return false;
  }
  switch (snapKind(St, V.Sort)) {
  case SortKind::Unit:
    if (V.Bits != 0) {
      Why = "non-zero unit payload";
      return false;
    }
    return true;
  case SortKind::Bool:
    if (V.Bits > 1) {
      Why = "boolean payload out of range";
      return false;
    }
    return true;
  case SortKind::I64:
  case SortKind::F64:
    return true;
  case SortKind::String:
    if (V.Bits >= St.Strings.size()) {
      Why = "string id out of range";
      return false;
    }
    return true;
  case SortKind::Rational:
    if (V.Bits >= St.Rationals.size()) {
      Why = "rational id out of range";
      return false;
    }
    return true;
  case SortKind::Set:
    if (V.Bits >= St.Sets.size()) {
      Why = "set id out of range";
      return false;
    }
    return true;
  case SortKind::User:
    if (V.Bits >= St.UFParents.size()) {
      Why = "e-class id out of range";
      return false;
    }
    return true;
  }
  Why = "corrupt sort kind";
  return false;
}

/// Remaps a raw snapshot value onto the live database's interner ids.
/// Identity except for interned payloads; sort ids and e-class ids map
/// identically by the prefix rule.
Value remapValue(const Staging &St, Value V) {
  switch (snapKind(St, V.Sort)) {
  case SortKind::String:
    return Value(V.Sort, St.StringMap[V.Bits]);
  case SortKind::Rational:
    return Value(V.Sort, St.RationalMap[V.Bits]);
  case SortKind::Set:
    return Value(V.Sort, St.SetMap[V.Bits]);
  default:
    return V;
  }
}

//===----------------------------------------------------------------------===
// Loader: section parsers
//===----------------------------------------------------------------------===

bool sectionFail(EggError &Err, uint32_t Sec, const std::string &Why) {
  return ioFail(Err, "corrupt snapshot: " + Why + " in " +
                         sectionName(Sec) + " section");
}

bool parseMeta(Staging &St, SpanReader &R, EggError &Err) {
  uint8_t Dirty;
  if (!R.readU32(St.Meta.Timestamp) || !R.readU8(Dirty) ||
      !R.readU64(St.Meta.UnionCount) || !R.readU64(St.Meta.Reserved) ||
      !R.readU64(St.Meta.ContentHash) || !R.readU64(St.Meta.LiveTuples))
    return sectionFail(Err, SecMeta, "truncated payload");
  if (Dirty > 1)
    return sectionFail(Err, SecMeta, "corrupt rebuild flag");
  St.Meta.RebuildFlag = Dirty == 1;
  if (St.Meta.Reserved > St.Meta.UnionCount)
    return sectionFail(Err, SecMeta, "reserved slot exceeds union count");
  if (!R.done())
    return sectionFail(Err, SecMeta, "trailing bytes");
  return true;
}

bool parseSorts(Staging &St, SpanReader &R, EggError &Err) {
  uint32_t Count;
  if (!R.readU32(Count))
    return sectionFail(Err, SecSorts, "truncated payload");
  if (Count < SortTable::FirstDynamicSort)
    return sectionFail(Err, SecSorts, "missing base sorts");
  std::unordered_set<std::string> Names;
  for (uint32_t Id = 0; Id < Count; ++Id) {
    SnapSort Sort;
    uint8_t Kind;
    if (!R.readU8(Kind) || !R.readU32(Sort.Element) ||
        !R.readString(Sort.Name))
      return sectionFail(Err, SecSorts, "truncated payload");
    if (Kind > static_cast<uint8_t>(SortKind::Set))
      return sectionFail(Err, SecSorts, "unknown sort kind");
    Sort.Kind = static_cast<SortKind>(Kind);
    if (Sort.Name.empty() || !Names.insert(Sort.Name).second)
      return sectionFail(Err, SecSorts, "empty or duplicate sort name");
    // The base sorts have fixed ids and are pre-declared in every
    // database; dynamic sorts may only be User or Set.
    if (Id < SortTable::FirstDynamicSort) {
      static const SortKind BaseKinds[] = {
          SortKind::Unit,   SortKind::Bool,   SortKind::I64,
          SortKind::F64,    SortKind::String, SortKind::Rational};
      static const char *BaseNames[] = {"Unit", "bool",   "i64",
                                        "f64",  "String", "Rational"};
      if (Sort.Kind != BaseKinds[Id] || Sort.Name != BaseNames[Id])
        return sectionFail(Err, SecSorts, "base sort mismatch");
    } else if (Sort.Kind != SortKind::User && Sort.Kind != SortKind::Set) {
      return sectionFail(Err, SecSorts, "base sort kind at a dynamic id");
    }
    if (Sort.Kind == SortKind::Set) {
      if (Sort.Element >= Id)
        return sectionFail(Err, SecSorts, "set element sort not yet declared");
    } else if (Sort.Element != 0) {
      return sectionFail(Err, SecSorts, "element sort on a non-set sort");
    }
    St.Sorts.push_back(std::move(Sort));
  }
  if (!R.done())
    return sectionFail(Err, SecSorts, "trailing bytes");
  return true;
}

bool parsePrims(Staging &St, SpanReader &R, EggError &Err) {
  uint32_t Count;
  if (!R.readU32(Count))
    return sectionFail(Err, SecPrims, "truncated payload");
  for (uint32_t Id = 0; Id < Count; ++Id) {
    SnapPrim Prim;
    uint32_t Argc;
    if (!R.readString(Prim.Name) || !R.readU32(Argc))
      return sectionFail(Err, SecPrims, "truncated payload");
    if (Prim.Name.empty())
      return sectionFail(Err, SecPrims, "empty primitive name");
    if (Argc > R.remaining() / 4)
      return sectionFail(Err, SecPrims, "truncated payload");
    for (uint32_t A = 0; A < Argc; ++A) {
      SortId Arg;
      if (!R.readU32(Arg))
        return sectionFail(Err, SecPrims, "truncated payload");
      if (Arg >= St.Sorts.size())
        return sectionFail(Err, SecPrims, "unknown argument sort");
      Prim.ArgSorts.push_back(Arg);
    }
    if (!R.readU32(Prim.OutSort))
      return sectionFail(Err, SecPrims, "truncated payload");
    if (Prim.OutSort >= St.Sorts.size())
      return sectionFail(Err, SecPrims, "unknown output sort");
    St.Prims.push_back(std::move(Prim));
  }
  if (!R.done())
    return sectionFail(Err, SecPrims, "trailing bytes");
  return true;
}

bool parseStrings(Staging &St, SpanReader &R, EggError &Err) {
  uint32_t Count;
  if (!R.readU32(Count))
    return sectionFail(Err, SecStrings, "truncated payload");
  std::unordered_set<std::string> Seen;
  for (uint32_t Id = 0; Id < Count; ++Id) {
    std::string S;
    if (!R.readString(S))
      return sectionFail(Err, SecStrings, "truncated payload");
    if (!Seen.insert(S).second)
      return sectionFail(Err, SecStrings, "duplicate interned string");
    St.Strings.push_back(std::move(S));
  }
  if (!R.done())
    return sectionFail(Err, SecStrings, "trailing bytes");
  return true;
}

bool parseRationals(Staging &St, SpanReader &R, EggError &Err) {
  uint32_t Count;
  if (!R.readU32(Count))
    return sectionFail(Err, SecRationals, "truncated payload");
  for (uint32_t Id = 0; Id < Count; ++Id) {
    uint8_t Tag;
    if (!R.readU8(Tag))
      return sectionFail(Err, SecRationals, "truncated payload");
    if (Tag > 2)
      return sectionFail(Err, SecRationals, "unknown rational tag");
    if (Tag != 0) {
      St.Rationals.push_back(Tag == 1 ? Rational::posInfinity()
                                      : Rational::negInfinity());
      continue;
    }
    std::string NumStr, DenStr;
    if (!R.readString(NumStr) || !R.readString(DenStr))
      return sectionFail(Err, SecRationals, "truncated payload");
    bool NumOk = false, DenOk = false;
    BigInt Num = BigInt::fromString(NumStr, NumOk);
    BigInt Den = BigInt::fromString(DenStr, DenOk);
    if (!NumOk || !DenOk || Den.isZero())
      return sectionFail(Err, SecRationals, "malformed rational");
    St.Rationals.push_back(Rational(std::move(Num), std::move(Den)));
  }
  // The interner never holds duplicates; a forged duplicate would desync
  // the provisional-id bookkeeping below, so reject it here.
  std::unordered_set<Rational, RationalStdHash> Seen;
  for (const Rational &Q : St.Rationals)
    if (!Seen.insert(Q).second)
      return sectionFail(Err, SecRationals, "duplicate interned rational");
  if (!R.done())
    return sectionFail(Err, SecRationals, "trailing bytes");
  return true;
}

bool parseUnionFind(Staging &St, SpanReader &R, EggError &Err) {
  uint64_t Count;
  if (!R.readU64(Count))
    return sectionFail(Err, SecUnionFind, "truncated payload");
  if (Count > R.remaining() / 8)
    return sectionFail(Err, SecUnionFind, "truncated payload");
  uint64_t NonRoots = 0;
  for (uint64_t Id = 0; Id < Count; ++Id) {
    uint64_t Parent;
    if (!R.readU64(Parent))
      return sectionFail(Err, SecUnionFind, "truncated payload");
    // Canonical representatives are minimal, so parent edges always point
    // at an equal or smaller id.
    if (Parent > Id)
      return sectionFail(Err, SecUnionFind, "parent edge points forward");
    NonRoots += Parent != Id;
    St.UFParents.push_back(Parent);
  }
  // Every effective union turns exactly one root into a non-root, and
  // non-roots never become roots again.
  if (NonRoots != St.Meta.UnionCount)
    return sectionFail(Err, SecUnionFind,
                       "union count inconsistent with parent edges");
  uint64_t DirtyLen;
  if (!R.readU64(DirtyLen))
    return sectionFail(Err, SecUnionFind, "truncated payload");
  if (DirtyLen > R.remaining() / 8)
    return sectionFail(Err, SecUnionFind, "truncated payload");
  std::vector<bool> DirtySeen(St.UFParents.size(), false);
  for (uint64_t I = 0; I < DirtyLen; ++I) {
    uint64_t Id;
    if (!R.readU64(Id))
      return sectionFail(Err, SecUnionFind, "truncated payload");
    // A dirty entry is a root that lost a union: in range, no longer
    // canonical, and listed at most once.
    if (Id >= St.UFParents.size() || St.UFParents[Id] == Id || DirtySeen[Id])
      return sectionFail(Err, SecUnionFind, "corrupt dirty worklist");
    DirtySeen[Id] = true;
    St.UFDirty.push_back(Id);
  }
  if (!R.done())
    return sectionFail(Err, SecUnionFind, "trailing bytes");
  // A pending rebuild is exactly a non-empty worklist; a flag that
  // disagrees would leave the listed losers unprocessed or misreport them.
  if (St.Meta.RebuildFlag == St.UFDirty.empty())
    return sectionFail(Err, SecUnionFind,
                       "rebuild flag disagrees with dirty worklist");
  return true;
}

bool parseSets(Staging &St, SpanReader &R, EggError &Err) {
  uint32_t Count;
  if (!R.readU32(Count))
    return sectionFail(Err, SecSets, "truncated payload");
  for (uint32_t Id = 0; Id < Count; ++Id) {
    uint32_t ElemCount;
    if (!R.readU32(ElemCount))
      return sectionFail(Err, SecSets, "truncated payload");
    if (ElemCount > R.remaining() / 12)
      return sectionFail(Err, SecSets, "truncated payload");
    std::vector<Value> Elements;
    for (uint32_t E = 0; E < ElemCount; ++E) {
      Value V;
      if (!R.readValue(V))
        return sectionFail(Err, SecSets, "truncated payload");
      std::string Why;
      // A set may only reference sets interned before it (mkSet interns
      // inner sets first), so bound the self-reference check at Id, not
      // the final count.
      if (V.Sort < St.Sorts.size() && snapKind(St, V.Sort) == SortKind::Set) {
        if (V.Bits >= Id)
          return sectionFail(Err, SecSets, "set element references forward");
      } else if (!validRawValue(St, V, Why)) {
        return sectionFail(Err, SecSets, Why);
      }
      if (!Elements.empty() && !(Elements.back() < V))
        return sectionFail(Err, SecSets, "unsorted set elements");
      Elements.push_back(V);
    }
    St.Sets.push_back(std::move(Elements));
  }
  if (!R.done())
    return sectionFail(Err, SecSets, "trailing bytes");
  return true;
}

/// Recursive typed-expression reader with full signature validation: every
/// call site is checked against the declared signature of its callee so an
/// installed expression can never be evaluated out of bounds or produce a
/// wrongly-sorted value. \p FnIndex is the function being declared —
/// function references must point strictly backwards (a declaration can
/// only name already-declared functions). \p AllowVars permits the two
/// merge slots (old/new, both of the output sort); default expressions
/// are closed.
bool parseExpr(const Staging &St, SpanReader &R, TypedExpr &Out,
               uint32_t FnIndex, SortId OutputSort, bool AllowVars,
               unsigned Depth, uint64_t &NodeBudget, std::string &Why) {
  if (Depth > MaxExprDepth) {
    Why = "expression nesting too deep";
    return false;
  }
  if (NodeBudget == 0) {
    Why = "expression too large";
    return false;
  }
  --NodeBudget;
  uint8_t Kind;
  uint32_t Type;
  if (!R.readU8(Kind) || !R.readU32(Type)) {
    Why = "truncated payload";
    return false;
  }
  if (Kind > static_cast<uint8_t>(TypedExpr::Kind::PrimCall)) {
    Why = "unknown expression kind";
    return false;
  }
  if (Type >= St.Sorts.size()) {
    Why = "unknown expression sort";
    return false;
  }
  TypedExpr::Kind K = static_cast<TypedExpr::Kind>(Kind);
  switch (K) {
  case TypedExpr::Kind::Var: {
    uint32_t Slot;
    if (!R.readU32(Slot)) {
      Why = "truncated payload";
      return false;
    }
    if (!AllowVars || Slot > 1 || Type != OutputSort) {
      Why = "invalid variable reference";
      return false;
    }
    Out = TypedExpr::makeVar(Slot, Type);
    return true;
  }
  case TypedExpr::Kind::Lit: {
    Value V;
    if (!R.readValue(V)) {
      Why = "truncated payload";
      return false;
    }
    if (V.Sort != Type || !validRawValue(St, V, Why)) {
      if (Why.empty())
        Why = "literal sort mismatch";
      return false;
    }
    Out = TypedExpr::makeLit(V); // raw ids; remapped during install
    return true;
  }
  case TypedExpr::Kind::FuncCall:
  case TypedExpr::Kind::PrimCall: {
    uint32_t Index, Argc;
    if (!R.readU32(Index) || !R.readU32(Argc)) {
      Why = "truncated payload";
      return false;
    }
    const std::vector<SortId> *Sig;
    SortId SigOut;
    if (K == TypedExpr::Kind::FuncCall) {
      if (Index >= FnIndex) {
        Why = "expression references an undeclared function";
        return false;
      }
      Sig = &St.Functions[Index].Decl.ArgSorts;
      SigOut = St.Functions[Index].Decl.OutSort;
    } else {
      if (Index >= St.Prims.size()) {
        Why = "expression references an unknown primitive";
        return false;
      }
      Sig = &St.Prims[Index].ArgSorts;
      SigOut = St.Prims[Index].OutSort;
    }
    if (Argc != Sig->size() || Type != SigOut) {
      Why = "call signature mismatch";
      return false;
    }
    std::vector<TypedExpr> Args;
    for (uint32_t A = 0; A < Argc; ++A) {
      TypedExpr Arg;
      if (!parseExpr(St, R, Arg, FnIndex, OutputSort, AllowVars, Depth + 1,
                     NodeBudget, Why))
        return false;
      if (Arg.Type != (*Sig)[A]) {
        Why = "call argument sort mismatch";
        return false;
      }
      Args.push_back(std::move(Arg));
    }
    Out = TypedExpr::makeCall(K, Index, Type, std::move(Args));
    return true;
  }
  }
  Why = "unknown expression kind";
  return false;
}

bool parseFunctions(Staging &St, SpanReader &R, EggError &Err) {
  uint32_t Count;
  if (!R.readU32(Count))
    return sectionFail(Err, SecFunctions, "truncated payload");
  std::unordered_set<std::string> Names;
  std::vector<bool> PrimSeen(St.Prims.size(), false);
  for (uint32_t F = 0; F < Count; ++F) {
    SnapFunction Fn;
    uint32_t Argc;
    if (!R.readString(Fn.Decl.Name) || !R.readU32(Argc))
      return sectionFail(Err, SecFunctions, "truncated payload");
    if (Fn.Decl.Name.empty() || !Names.insert(Fn.Decl.Name).second)
      return sectionFail(Err, SecFunctions, "empty or duplicate name");
    if (Argc > R.remaining() / 4)
      return sectionFail(Err, SecFunctions, "truncated payload");
    for (uint32_t A = 0; A < Argc; ++A) {
      SortId Arg;
      if (!R.readU32(Arg))
        return sectionFail(Err, SecFunctions, "truncated payload");
      if (Arg >= St.Sorts.size())
        return sectionFail(Err, SecFunctions, "unknown argument sort");
      Fn.Decl.ArgSorts.push_back(Arg);
    }
    uint64_t Cost;
    if (!R.readU32(Fn.Decl.OutSort) || !R.readU64(Cost))
      return sectionFail(Err, SecFunctions, "truncated payload");
    if (Fn.Decl.OutSort >= St.Sorts.size())
      return sectionFail(Err, SecFunctions, "unknown output sort");
    if (Cost > static_cast<uint64_t>(INT64_MAX))
      return sectionFail(Err, SecFunctions, "negative extraction cost");
    Fn.Decl.Cost = static_cast<int64_t>(Cost);
    // The function is appended before its expressions parse so parseExpr's
    // strictly-backwards rule (Index < F) can use St.Functions.
    St.Functions.push_back(std::move(Fn));
    SnapFunction &Staged = St.Functions.back();
    for (int Slot = 0; Slot < 2; ++Slot) {
      bool IsMerge = Slot == 0;
      uint8_t Present;
      if (!R.readU8(Present))
        return sectionFail(Err, SecFunctions, "truncated payload");
      if (Present > 1)
        return sectionFail(Err, SecFunctions, "corrupt expression flag");
      if (!Present)
        continue;
      TypedExpr E;
      uint64_t NodeBudget = MaxExprNodes;
      std::string Why;
      if (!parseExpr(St, R, E, F, Staged.Decl.OutSort,
                     /*AllowVars=*/IsMerge, 0, NodeBudget, Why))
        return sectionFail(Err, SecFunctions, Why);
      if (E.Type != Staged.Decl.OutSort)
        return sectionFail(Err, SecFunctions,
                           "expression sort does not match output sort");
      if (IsMerge)
        Staged.Decl.MergeExpr = std::move(E);
      else
        Staged.Decl.DefaultExpr = std::move(E);
    }
    // Record which primitives the expressions reference, for install-time
    // re-resolution.
    std::vector<const TypedExpr *> Stack;
    if (Staged.Decl.MergeExpr)
      Stack.push_back(&*Staged.Decl.MergeExpr);
    if (Staged.Decl.DefaultExpr)
      Stack.push_back(&*Staged.Decl.DefaultExpr);
    while (!Stack.empty()) {
      const TypedExpr *E = Stack.back();
      Stack.pop_back();
      if (E->ExprKind == TypedExpr::Kind::PrimCall && !PrimSeen[E->Index]) {
        PrimSeen[E->Index] = true;
        St.ReferencedPrims.push_back(E->Index);
      }
      for (const TypedExpr &Arg : E->Args)
        Stack.push_back(&Arg);
    }
  }
  if (!R.done())
    return sectionFail(Err, SecFunctions, "trailing bytes");
  return true;
}

/// Builds the interner remaps: each snapshot string/rational/set is looked
/// up in the live interner; misses get provisional ids past the live end,
/// realized in order during install. Interners are append-only, so a live
/// database whose interned prefix came from this snapshot remaps
/// identically — which is what makes liveContentHash round-trip exactly.
void buildRemaps(const EGraph &G, Staging &St) {
  uint32_t LiveStrings = static_cast<uint32_t>(G.strings().size());
  for (const std::string &S : St.Strings) {
    uint32_t Id;
    if (!G.strings().find(S, Id)) {
      Id = LiveStrings + static_cast<uint32_t>(St.PendingStrings.size());
      St.PendingStrings.push_back(S);
    }
    St.StringMap.push_back(Id);
  }
  uint32_t LiveRationals = static_cast<uint32_t>(G.rationals().size());
  for (const Rational &Q : St.Rationals) {
    uint32_t Id;
    if (!G.rationals().find(Q, Id)) {
      Id = LiveRationals + static_cast<uint32_t>(St.PendingRationals.size());
      St.PendingRationals.push_back(Q);
    }
    St.RationalMap.push_back(Id);
  }
  // Sets remap their elements first (inner before outer by the forward-
  // reference check), then re-sort: remapping can reorder interned ids.
  // The maps are injective, so re-sorting cannot create duplicates.
  uint32_t LiveSets = static_cast<uint32_t>(G.sets().size());
  for (const std::vector<Value> &RawElements : St.Sets) {
    std::vector<Value> Elements;
    Elements.reserve(RawElements.size());
    for (Value V : RawElements)
      Elements.push_back(remapValue(St, V));
    std::sort(Elements.begin(), Elements.end());
    uint32_t Id;
    if (!G.sets().find(Elements, Id)) {
      Id = LiveSets + static_cast<uint32_t>(St.PendingSets.size());
      St.PendingSets.push_back(std::move(Elements));
    }
    St.SetMap.push_back(Id);
  }
}

bool parseTables(Staging &St, SpanReader &R, EggError &Err) {
  uint32_t Count;
  if (!R.readU32(Count))
    return sectionFail(Err, SecTables, "truncated payload");
  if (Count != St.Functions.size())
    return sectionFail(Err, SecTables,
                       "table count does not match function count");
  uint64_t TotalLive = 0;
  uint64_t ContentHash = 0;
  for (uint32_t F = 0; F < Count; ++F) {
    const FunctionDecl &Decl = St.Functions[F].Decl;
    unsigned NumKeys = static_cast<unsigned>(Decl.ArgSorts.size());
    auto Staged = std::make_unique<Table>(Decl.columnSorts(), F);
    Staged->setIdColumns(
        Decl.idColumns([&](SortId S) { return snapKind(St, S); }));
    uint64_t Rows;
    if (!R.readU64(Rows))
      return sectionFail(Err, SecTables, "truncated payload");
    unsigned Width = NumKeys + 1;
    if (Rows > R.remaining() / (4 + 12ull * Width))
      return sectionFail(Err, SecTables, "truncated payload");
    std::vector<Value> Raw(Width), Cells(Width);
    uint32_t LastStamp = 0;
    for (uint64_t Row = 0; Row < Rows; ++Row) {
      uint32_t Stamp;
      if (!R.readU32(Stamp))
        return sectionFail(Err, SecTables, "truncated payload");
      if (Stamp > St.Meta.Timestamp)
        return sectionFail(Err, SecTables, "row stamp from the future");
      // Rows are saved in row order, whose stamps never decrease.
      if (Stamp < LastStamp)
        return sectionFail(Err, SecTables, "row stamps out of order");
      LastStamp = Stamp;
      for (unsigned I = 0; I < Width; ++I) {
        Value V;
        if (!R.readValue(V))
          return sectionFail(Err, SecTables, "truncated payload");
        SortId Expected = I < NumKeys ? Decl.ArgSorts[I] : Decl.OutSort;
        std::string Why;
        if (V.Sort != Expected)
          return sectionFail(Err, SecTables, "cell sort mismatch");
        if (!validRawValue(St, V, Why))
          return sectionFail(Err, SecTables, Why);
        Raw[I] = V;
        Cells[I] = remapValue(St, V);
      }
      ContentHash +=
          Table::rowHash(F, Width, [&](unsigned I) { return Raw[I]; });
      size_t Before = Staged->liveCount();
      Staged->insert(Cells.data(), Cells[NumKeys], Stamp);
      if (Staged->liveCount() != Before + 1)
        return sectionFail(Err, SecTables, "duplicate row key");
    }
    TotalLive += Rows;
    St.Tables.push_back(std::move(Staged));
  }
  if (!R.done())
    return sectionFail(Err, SecTables, "trailing bytes");
  // Integrity cross-checks against META, over the raw (pre-remap) values —
  // the same id space liveContentHash() was computed in at save time.
  if (TotalLive != St.Meta.LiveTuples)
    return sectionFail(Err, SecTables, "live tuple count mismatch");
  if (ContentHash != St.Meta.ContentHash)
    return sectionFail(Err, SecTables, "content hash mismatch");
  return true;
}

//===----------------------------------------------------------------------===
// Loader: declaration prefix checks and install
//===----------------------------------------------------------------------===

bool checkDeclarationPrefix(const EGraph &G, const Staging &St,
                            EggError &Err) {
  const SortTable &Live = G.sorts();
  if (Live.size() > St.Sorts.size())
    return ioFail(Err, "declaration mismatch: database declares " +
                           std::to_string(Live.size()) +
                           " sorts, snapshot has " +
                           std::to_string(St.Sorts.size()));
  for (SortId Id = 0; Id < Live.size(); ++Id) {
    const SortInfo &L = Live.info(Id);
    const SnapSort &S = St.Sorts[Id];
    bool Match = L.Kind == S.Kind && L.Name == S.Name &&
                 (L.Kind != SortKind::Set || L.Element == S.Element);
    if (!Match)
      return ioFail(Err, "declaration mismatch: sort '" + L.Name +
                             "' differs from the snapshot's");
  }
  if (G.numFunctions() > St.Functions.size())
    return ioFail(Err, "declaration mismatch: database declares " +
                           std::to_string(G.numFunctions()) +
                           " functions, snapshot has " +
                           std::to_string(St.Functions.size()));
  for (FunctionId F = 0; F < G.numFunctions(); ++F) {
    const FunctionDecl &L = G.function(F).Decl;
    const FunctionDecl &S = St.Functions[F].Decl;
    // Signatures must agree exactly; merge/default bodies are compared
    // only by presence (they were validated against the same signatures,
    // and the snapshot's bodies win the install).
    bool Match = L.Name == S.Name && L.ArgSorts == S.ArgSorts &&
                 L.OutSort == S.OutSort && L.Cost == S.Cost &&
                 L.MergeExpr.has_value() == S.MergeExpr.has_value() &&
                 L.DefaultExpr.has_value() == S.DefaultExpr.has_value();
    if (!Match)
      return ioFail(Err, "declaration mismatch: function '" + L.Name +
                             "' differs from the snapshot's");
  }
  return true;
}

/// Remaps a validated expression in place onto the live database: literal
/// interner ids through the value remap, primitive indices through
/// \p PrimMap. Sort and function ids are already identical.
void remapExpr(const Staging &St,
               const std::unordered_map<uint32_t, uint32_t> &PrimMap,
               TypedExpr &E) {
  if (E.ExprKind == TypedExpr::Kind::Lit)
    E.Literal = remapValue(St, E.Literal);
  if (E.ExprKind == TypedExpr::Kind::PrimCall)
    E.Index = PrimMap.at(E.Index);
  for (TypedExpr &Arg : E.Args)
    remapExpr(St, PrimMap, Arg);
}

/// The mutating install phase. Runs inside the caller's command
/// transaction: the append-only declaration steps can fail (or take an
/// injected fault) and be rolled back; after the last fallible step the
/// noexcept adoptContent swap commits the content.
bool installStaging(EGraph &G, Staging &St, EggError &Err) {
  // 1. Declare the sorts the snapshot has beyond the live prefix. Set
  // sorts register their primitives here, so the re-resolution below sees
  // them.
  for (SortId Id = static_cast<SortId>(G.sorts().size());
       Id < St.Sorts.size(); ++Id) {
    const SnapSort &S = St.Sorts[Id];
    SortId Got = S.Kind == SortKind::Set
                     ? G.declareSetSort(S.Name, S.Element)
                     : G.declareSort(S.Name);
    (void)Got;
    assert(Got == Id && "prefix rule broke sort id identity");
  }

  // 2. Re-resolve every referenced primitive by signature. Primitive ids
  // are declaration-history-dependent, so the snapshot's indices are
  // meaningless here; names and sorts are the stable identity. The
  // polymorphic comparisons are instantiated per sort on first use, so
  // resolution re-instantiates them on a miss.
  std::unordered_map<uint32_t, uint32_t> PrimMap;
  for (uint32_t Old : St.ReferencedPrims) {
    const SnapPrim &P = St.Prims[Old];
    uint32_t Live;
    if (!G.primitives().resolveOrInstantiate(P.Name, P.ArgSorts, Live) ||
        G.primitives().get(Live).OutSort != P.OutSort)
      return ioFail(Err, "snapshot references unknown primitive '" +
                             P.Name + "'");
    PrimMap.emplace(Old, Live);
  }

  // 3. Realize the provisional interner ids, in assignment order. The
  // interners are append-only; a failure from here on leaves orphaned
  // entries, which is harmless (exactly as pop does).
  for (const std::string &S : St.PendingStrings) {
    Value V = G.mkString(S);
    (void)V;
    assert(V.Bits == G.strings().size() - 1 && "provisional id desync");
  }
  for (const Rational &Q : St.PendingRationals) {
    Value V = G.mkRational(Q);
    (void)V;
    assert(V.Bits == G.rationals().size() - 1 && "provisional id desync");
  }
  for (std::vector<Value> &Elements : St.PendingSets) {
    uint32_t Id = G.internSetElements(std::move(Elements));
    (void)Id;
    assert(Id == G.sets().size() - 1 && "provisional id desync");
  }

  // 4. Declare the functions beyond the live prefix, with remapped
  // expressions. Live-prefix functions keep their declarations (the
  // signatures matched; bodies were compiled from the same source).
  for (FunctionId F = static_cast<FunctionId>(G.numFunctions());
       F < St.Functions.size(); ++F) {
    FunctionDecl Decl = std::move(St.Functions[F].Decl);
    if (Decl.MergeExpr)
      remapExpr(St, PrimMap, *Decl.MergeExpr);
    if (Decl.DefaultExpr)
      remapExpr(St, PrimMap, *Decl.DefaultExpr);
    FunctionId Got = G.declareFunction(std::move(Decl));
    (void)Got;
    assert(Got == F && "prefix rule broke function id identity");
  }

  // 5. Point of no return: noexcept wholesale content swap.
  G.adoptContent(std::move(St.Tables), std::move(St.UFParents),
                 std::move(St.UFDirty), St.Meta.UnionCount,
                 St.Meta.Timestamp);
  return true;
}

} // namespace

//===----------------------------------------------------------------------===
// Public API
//===----------------------------------------------------------------------===

bool saveSnapshot(const EGraph &G, const std::string &Path, EggError &Err) {
  std::vector<uint8_t> Bytes = serializeDatabase(G);
  return writeFileAtomic(Path, Bytes, Err);
}

bool loadSnapshot(EGraph &G, const std::string &Path, EggError &Err) {
  // Read the whole file up front: snapshots are bounded by what a prior
  // save produced, and one buffer makes the whole-file checksum and the
  // bounds-checked section spans straightforward.
  std::vector<uint8_t> Bytes;
  {
    FileCloser File;
    File.F = std::fopen(Path.c_str(), "rb");
    if (!File.F)
      return ioFail(Err, "cannot open '" + Path + "'");
    char Buffer[1 << 16];
    size_t N;
    while ((N = std::fread(Buffer, 1, sizeof(Buffer), File.F)) > 0)
      Bytes.insert(Bytes.end(), Buffer, Buffer + N);
    if (std::ferror(File.F))
      return ioFail(Err, "read failed for '" + Path + "'");
  }

  // Envelope: magic, version, flags, whole-file checksum, section frames.
  constexpr size_t HeaderBytes = 8 + 4 + 4 + 4;
  if (Bytes.size() < HeaderBytes + 4)
    return ioFail(Err, "corrupt snapshot: file too short");
  if (std::memcmp(Bytes.data(), SnapshotMagic, 8) != 0)
    return ioFail(Err, "not a snapshot file (bad magic)");
  SpanReader Head(Bytes.data() + 8, HeaderBytes - 8);
  uint32_t Version, Flags, SectionCount;
  Head.readU32(Version);
  Head.readU32(Flags);
  Head.readU32(SectionCount);
  if (Version != SnapshotVersion)
    return ioFail(Err, "unsupported snapshot version " +
                           std::to_string(Version) + " (expected " +
                           std::to_string(SnapshotVersion) + ")");
  if (Flags != 0)
    return ioFail(Err, "unsupported snapshot flags");
  if (SectionCount != NumSections)
    return ioFail(Err, "corrupt snapshot: wrong section count");
  {
    SpanReader Tail(Bytes.data() + Bytes.size() - 4, 4);
    uint32_t Stored;
    Tail.readU32(Stored);
    if (crc32c(Bytes.data(), Bytes.size() - 4) != Stored)
      return ioFail(Err, "corrupt snapshot: file checksum mismatch");
  }

  SpanReader Frames(Bytes.data() + HeaderBytes,
                    Bytes.size() - HeaderBytes - 4);
  Staging St;
  for (uint32_t Expected = 1; Expected <= NumSections; ++Expected) {
    uint32_t Id;
    uint64_t Len;
    if (!Frames.readU32(Id) || !Frames.readU64(Len))
      return ioFail(Err, "corrupt snapshot: truncated section frame");
    if (Id != Expected)
      return ioFail(Err, "corrupt snapshot: sections out of order");
    if (Len > Frames.remaining() || Frames.remaining() - Len < 4)
      return ioFail(Err, std::string("corrupt snapshot: truncated ") +
                             sectionName(Id) + " section");
    const uint8_t *Payload = Frames.Data + Frames.Off;
    Frames.Off += Len;
    uint32_t StoredCrc = 0;
    if (!Frames.readU32(StoredCrc))
      return ioFail(Err, std::string("corrupt snapshot: truncated ") +
                             sectionName(Id) + " section");
    if (crc32c(Payload, Len) != StoredCrc)
      return ioFail(Err, std::string("corrupt snapshot: checksum mismatch "
                                     "in ") +
                             sectionName(Id) + " section");
    SpanReader R(Payload, Len);
    bool Ok = true;
    switch (Id) {
    case SecMeta:
      Ok = parseMeta(St, R, Err);
      break;
    case SecSorts:
      Ok = parseSorts(St, R, Err);
      break;
    case SecPrims:
      Ok = parsePrims(St, R, Err);
      break;
    case SecStrings:
      Ok = parseStrings(St, R, Err);
      break;
    case SecRationals:
      Ok = parseRationals(St, R, Err);
      break;
    case SecUnionFind:
      Ok = parseUnionFind(St, R, Err);
      break;
    case SecSets:
      Ok = parseSets(St, R, Err);
      break;
    case SecFunctions:
      Ok = parseFunctions(St, R, Err);
      break;
    case SecTables:
      // Tables stage with remapped cells, so the remaps must exist first.
      if (!checkDeclarationPrefix(G, St, Err))
        return false;
      buildRemaps(G, St);
      Ok = parseTables(St, R, Err);
      break;
    }
    if (!Ok)
      return false;
  }
  if (!Frames.done())
    return ioFail(Err, "corrupt snapshot: trailing bytes after sections");

  return installStaging(G, St, Err);
}

} // namespace egglog
