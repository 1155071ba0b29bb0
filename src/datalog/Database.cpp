//===- datalog/Database.cpp - Datalog relations and eqrel --------------------===//
//
// Part of egglog-cpp. See Database.h for an overview.
//
//===----------------------------------------------------------------------===//

#include "datalog/Database.h"

using namespace egglog;
using namespace egglog::datalog;

Relation &Database::declareRelation(const std::string &Name, unsigned Arity) {
  assert(!exists(Name) && "relation redeclared");
  return Relations.emplace(Name, Relation(Arity)).first->second;
}

EqRel &Database::declareEqRel(const std::string &Name) {
  assert(!exists(Name) && "relation redeclared");
  return EqRels.emplace(Name, EqRel()).first->second;
}

Relation &Database::relation(const std::string &Name) {
  auto It = Relations.find(Name);
  assert(It != Relations.end() && "unknown relation");
  return It->second;
}

const Relation &Database::relation(const std::string &Name) const {
  auto It = Relations.find(Name);
  assert(It != Relations.end() && "unknown relation");
  return It->second;
}

EqRel &Database::eqrel(const std::string &Name) {
  auto It = EqRels.find(Name);
  assert(It != EqRels.end() && "unknown eqrel");
  return It->second;
}
