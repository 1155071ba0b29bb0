//===- tests/core/SnapshotTest.cpp - Snapshot persistence hardening -------===//
//
// Part of egglog-cpp. The crash-safe snapshot subsystem end to end:
//
//  - exact liveContentHash round-trip into a fresh database and back into
//    the originating one (identity remap both ways),
//  - a 5-seed randomized differential: a run continued after save + load
//    (runs, unions, inserts, extractions, push/pop) must be bit-identical
//    to a run that never snapshotted,
//  - corruption sweeps: a single-byte flip at every offset and a
//    truncation at every length must each produce a clean io-kind error
//    and leave the live database untouched,
//  - a fault sweep over the writer's "snapshot.write" failpoint: a crash
//    at any write step must leave the previous on-disk snapshot intact,
//  - structural rejections: version skew, declaration mismatch and
//    decreasing row stamps,
//  - re-instantiation of the polymorphic comparisons a snapshot's merge
//    expressions reference,
//  - a warm start of a saturated Fig. 8 points-to database that must
//    reproduce the cold fixpoint exactly.
//
//===----------------------------------------------------------------------===//

#include "core/Extract.h"
#include "core/Frontend.h"
#include "core/Snapshot.h"
#include "pointsto/ProgramGenerator.h"
#include "support/Crc32c.h"
#include "support/FailPoints.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <random>
#include <string>
#include <vector>

using namespace egglog;

namespace {

struct StateFingerprint {
  uint64_t ContentHash;
  size_t LiveTuples;
  uint64_t Unions;
  uint64_t UfSize;
  size_t Functions;
  size_t Sorts;

  bool operator==(const StateFingerprint &) const = default;
};

StateFingerprint fingerprint(Frontend &F) {
  return StateFingerprint{F.graph().liveContentHash(),
                          F.graph().liveTupleCount(),
                          F.graph().unionFind().unionCount(),
                          F.graph().unionFind().size(),
                          F.graph().numFunctions(),
                          F.graph().sorts().size()};
}

std::string tmpPath(const std::string &Name) {
  return ::testing::TempDir() + Name;
}

std::vector<unsigned char> readBytes(const std::string &Path) {
  std::ifstream Stream(Path, std::ios::binary);
  EXPECT_TRUE(Stream.is_open()) << Path;
  return std::vector<unsigned char>(std::istreambuf_iterator<char>(Stream),
                                    {});
}

void writeBytes(const std::string &Path,
                const std::vector<unsigned char> &Bytes) {
  // Unlink first: the sweeps rewrite one file per offset, and on ext4
  // closing a truncated-and-rewritten file forces a flush (tens of ms),
  // while closing a freshly created one does not.
  std::remove(Path.c_str());
  std::ofstream Stream(Path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(Stream.is_open()) << Path;
  Stream.write(reinterpret_cast<const char *>(Bytes.data()),
               static_cast<std::streamsize>(Bytes.size()));
  ASSERT_TRUE(Stream.good()) << Path;
}

bool fileExists(const std::string &Path) {
  std::ifstream Stream(Path, std::ios::binary);
  return Stream.is_open();
}

/// Declarations only — safe to run exactly once per database (re-running
/// them on a loaded copy would hit "already declared").
const char *Decls = R"(
  (datatype Math (Num i64) (Var String) (Add Math Math) (Mul Math Math))
  (sort ISet (Set i64))
  (function s () ISet :merge (set-union old new))
  (function q () Rational :merge (min old new))
  (relation edge (i64 i64))
  (relation path (i64 i64))
)";

/// Rules are engine state, not database state: a snapshot does not carry
/// them, so a warm-started frontend re-declares them after (load).
const char *Rules = R"(
  (rewrite (Add a b) (Add b a))
  (rewrite (Add (Num x) (Num y)) (Num (+ x y)))
  (rule ((edge x y)) ((path x y)))
  (rule ((path x y) (edge y z)) ((path x z)))
)";

/// Ground facts exercising every serialized value family: i64, strings,
/// rationals, sets, user sorts, and unions.
const char *Body = R"(
  (define e (Add (Num 1) (Add (Num 2) (Var "x"))))
  (set (s) (set-insert (set-empty) 7))
  (set (s) (set-insert (set-empty) 3))
  (set (q) (rational 1 3))
  (set (q) (rational 2 7))
  (edge 1 2) (edge 2 3) (edge 3 4)
  (union (Num 5) (Add (Num 2) (Num 3)))
  (run 3)
)";

/// From-scratch extraction of \p Expr, comparable across frontends with
/// different index maintenance histories (among equal-cost terms the
/// incremental index's winner depends on its scan order).
std::string probeExtract(Frontend &F, const std::string &Expr) {
  Value V;
  if (!F.evalGround(Expr, V))
    return "<absent>";
  F.graph().extractIndex().invalidate();
  std::optional<ExtractedTerm> Term = extractTerm(F.graph(), V);
  if (!Term)
    return "<no-term>";
  return Term->Text + " $" + std::to_string(Term->Cost);
}

/// A victim frontend with state worth protecting, plus the saved
/// fingerprint a failed load must preserve.
struct Victim {
  Frontend F;
  StateFingerprint Before;

  Victim() {
    EXPECT_TRUE(F.execute(Decls)) << F.error();
    EXPECT_TRUE(F.execute(Body)) << F.error();
    Before = fingerprint(F);
  }

  /// Loads \p Path, asserting the clean io-error contract: structured
  /// failure, untouched database.
  void expectLoadFails(const std::string &Path, const char *Context) {
    EXPECT_FALSE(F.execute("(load \"" + Path + "\")")) << Context;
    EXPECT_EQ(F.lastError().Kind, ErrKind::IO)
        << Context << ": " << F.error();
    EXPECT_EQ(fingerprint(F), Before) << Context;
  }
};

} // namespace

TEST(SnapshotTest, RoundTripIntoFreshDatabase) {
  const std::string Path = tmpPath("snap_roundtrip.snap");
  Frontend A;
  ASSERT_TRUE(A.execute(Decls)) << A.error();
  ASSERT_TRUE(A.execute(Rules)) << A.error();
  ASSERT_TRUE(A.execute(Body)) << A.error();
  ASSERT_TRUE(A.execute("(save \"" + Path + "\")")) << A.error();

  // An empty database's declarations are trivially a prefix: the load
  // recreates every sort, function, interner entry, and tuple with
  // identical ids, so the content hash matches exactly.
  Frontend B;
  ASSERT_TRUE(B.execute("(load \"" + Path + "\")")) << B.error();
  EXPECT_EQ(fingerprint(B), fingerprint(A));
  EXPECT_EQ(B.graph().strings().size(), A.graph().strings().size());
  EXPECT_EQ(B.graph().rationals().size(), A.graph().rationals().size());
  EXPECT_EQ(B.graph().sets().size(), A.graph().sets().size());
  EXPECT_EQ(probeExtract(B, "e"), probeExtract(A, "e"));

  // Warm start: re-declare the rules and keep running; the loaded copy
  // must stay in lockstep with the original (scheduler-visible behavior).
  ASSERT_TRUE(B.execute(Rules)) << B.error();
  const char *Suffix = "(edge 4 5) (union (Num 9) (Add (Num 4) (Num 5))) "
                       "(run 3)";
  ASSERT_TRUE(A.execute(Suffix)) << A.error();
  ASSERT_TRUE(B.execute(Suffix)) << B.error();
  EXPECT_EQ(fingerprint(B), fingerprint(A));
  EXPECT_EQ(probeExtract(B, "e"), probeExtract(A, "e"));
  std::remove(Path.c_str());
}

TEST(SnapshotTest, InPlaceReloadRestoresExactState) {
  const std::string Path = tmpPath("snap_inplace.snap");
  Frontend F;
  ASSERT_TRUE(F.execute(Decls)) << F.error();
  ASSERT_TRUE(F.execute(Rules)) << F.error();
  ASSERT_TRUE(F.execute(Body)) << F.error();
  StateFingerprint Saved = fingerprint(F);
  std::string SavedExtract = probeExtract(F, "e");
  ASSERT_TRUE(F.execute("(save \"" + Path + "\")")) << F.error();

  // Diverge, then load the snapshot back into the same database: the
  // declarations are identical, so the remap is the identity and the
  // restore is exact.
  ASSERT_TRUE(F.execute("(edge 8 9) (union (Num 50) (Num 60)) (run 2)"))
      << F.error();
  ASSERT_NE(fingerprint(F), Saved);
  ASSERT_TRUE(F.execute("(load \"" + Path + "\")")) << F.error();
  EXPECT_EQ(fingerprint(F), Saved);
  EXPECT_EQ(probeExtract(F, "e"), SavedExtract);

  // The database stays fully usable: the engine's cached hashes were
  // invalidated, so new work lands on the restored content.
  ASSERT_TRUE(F.execute("(run 1) (check (= e (Add (Num 1) (Add (Num 2) "
                        "(Var \"x\")))))"))
      << F.error();
  std::remove(Path.c_str());
}

TEST(SnapshotTest, FiveSeedDifferentialContinuesAfterReload) {
  // For each seed: frontend A runs prefix + suffix with no snapshot;
  // frontend B runs the prefix, saves, and a fresh frontend C loads the
  // snapshot, re-declares the rules, and runs the suffix. A and C must be
  // bit-identical throughout — same hashes, same extraction, same
  // outputs.
  const std::string Path = tmpPath("snap_differential.snap");
  for (uint32_t Seed : {11u, 23u, 47u, 101u, 1009u}) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    std::mt19937 Rng(Seed);
    auto Pick = [&](uint64_t Bound) {
      return std::uniform_int_distribution<uint64_t>(0, Bound - 1)(Rng);
    };
    auto Num = [&](uint64_t Bound) { return std::to_string(Pick(Bound)); };
    auto RandomCommand = [&](size_t &Depth, bool AllowContexts) {
      switch (Pick(AllowContexts ? 10u : 8u)) {
      case 0:
      case 1:
      case 2:
        return "(edge " + Num(12) + " " + Num(12) + ")";
      case 3:
      case 4:
        return "(Add (Num " + Num(6) + ") (Num " + Num(6) + "))";
      case 5:
        // Union leaf-only Var classes: distinct (Num a)/(Num b) merges
        // would make the arithmetic inconsistent and the constant-fold
        // rewrite would then generate Num values without bound.
        return "(union (Var \"u" + Num(6) + "\") (Var \"u" + Num(6) +
               "\"))";
      case 6:
      case 7:
        return "(run " + std::to_string(1 + Pick(2)) + ")";
      default:
        if (Depth > 0 && Pick(2) == 0) {
          --Depth;
          return std::string("(pop)");
        }
        if (Depth < 2) {
          ++Depth;
          return std::string("(push)");
        }
        return std::string("(run 1)");
      }
    };

    // The prefix stays at context depth 0 so the save point is a legal
    // load point; the suffix mixes push/pop back in.
    std::vector<std::string> Prefix, Suffix;
    size_t Depth = 0;
    for (int I = 0; I < 30; ++I)
      Prefix.push_back(RandomCommand(Depth, /*AllowContexts=*/false));
    for (int I = 0; I < 30; ++I)
      Suffix.push_back(RandomCommand(Depth, /*AllowContexts=*/true));

    Frontend A, B;
    for (Frontend *F : {&A, &B}) {
      ASSERT_TRUE(F->execute(Decls)) << F->error();
      ASSERT_TRUE(F->execute(Rules)) << F->error();
      ASSERT_TRUE(F->execute("(define root (Add (Num 0) (Num 1)))"))
          << F->error();
      for (const std::string &C : Prefix)
        ASSERT_TRUE(F->execute(C)) << C << ": " << F->error();
    }
    ASSERT_TRUE(B.execute("(save \"" + Path + "\")")) << B.error();

    Frontend C;
    ASSERT_TRUE(C.execute("(load \"" + Path + "\")")) << C.error();
    ASSERT_TRUE(C.execute(Rules)) << C.error();
    ASSERT_EQ(fingerprint(C), fingerprint(A)) << "diverged at the reload";

    for (const std::string &Cmd : Suffix) {
      ASSERT_TRUE(A.execute(Cmd)) << Cmd << ": " << A.error();
      ASSERT_TRUE(C.execute(Cmd)) << Cmd << ": " << C.error();
      ASSERT_EQ(fingerprint(C), fingerprint(A)) << "diverged at: " << Cmd;
    }
    EXPECT_EQ(probeExtract(C, "root"), probeExtract(A, "root"));
  }
  std::remove(Path.c_str());
}

TEST(SnapshotTest, LoadReinstantiatesPolymorphicComparisons) {
  // `==` and `!=` over bool have no builtin overload: the merge
  // expressions instantiate them. A fresh database has neither, so the
  // load must instantiate them again to resolve the snapshot's merges.
  const std::string Path = tmpPath("snap_comparisons.snap");
  const char *Program = R"(
    (function same () bool :merge (== old new))
    (function differ () bool :merge (!= old new))
    (set (same) true)
    (set (differ) true)
  )";
  Frontend A;
  ASSERT_TRUE(A.execute(Program)) << A.error();
  ASSERT_TRUE(A.execute("(save \"" + Path + "\")")) << A.error();

  const std::vector<SortId> BoolPair = {SortTable::BoolSort,
                                        SortTable::BoolSort};
  Frontend B;
  uint32_t Id;
  for (const char *Name : {"==", "!="})
    EXPECT_FALSE(B.graph().primitives().resolve(Name, BoolPair, Id)) << Name;
  ASSERT_TRUE(B.execute("(load \"" + Path + "\")")) << B.error();
  for (const char *Name : {"==", "!="})
    EXPECT_TRUE(B.graph().primitives().resolve(Name, BoolPair, Id)) << Name;
  EXPECT_EQ(fingerprint(B), fingerprint(A));

  // The re-instantiated merges compute what the originals do.
  const char *Suffix = R"(
    (set (same) false)
    (set (differ) false)
    (check (= (same) false))
    (check (= (differ) true))
  )";
  ASSERT_TRUE(A.execute(Suffix)) << A.error();
  ASSERT_TRUE(B.execute(Suffix)) << B.error();
  EXPECT_EQ(fingerprint(B), fingerprint(A));
  std::remove(Path.c_str());
}

TEST(SnapshotTest, CorruptionByteFlipSweep) {
  // Keep the database (and therefore the file) small: the sweep loads
  // once per byte. Every flip must be caught — the trailing whole-file
  // checksum covers every byte, including itself.
  const std::string Path = tmpPath("snap_flip.snap");
  const std::string Corrupt = tmpPath("snap_flip_corrupt.snap");
  Victim V;
  ASSERT_TRUE(V.F.execute("(save \"" + Path + "\")")) << V.F.error();
  std::vector<unsigned char> Good = readBytes(Path);
  ASSERT_GT(Good.size(), 24u);

  for (size_t I = 0; I < Good.size(); ++I) {
    std::vector<unsigned char> Bad = Good;
    Bad[I] ^= 0xFF;
    writeBytes(Corrupt, Bad);
    V.expectLoadFails(Corrupt, ("flip at offset " + std::to_string(I))
                                   .c_str());
    if (::testing::Test::HasFailure())
      return;
  }

  // The sweep harness itself is sound: the uncorrupted copy loads.
  writeBytes(Corrupt, Good);
  EXPECT_TRUE(V.F.execute("(load \"" + Corrupt + "\")")) << V.F.error();
  EXPECT_EQ(fingerprint(V.F), V.Before);
  std::remove(Path.c_str());
  std::remove(Corrupt.c_str());
}

TEST(SnapshotTest, CorruptionTruncationSweep) {
  const std::string Path = tmpPath("snap_trunc.snap");
  const std::string Corrupt = tmpPath("snap_trunc_corrupt.snap");
  Victim V;
  ASSERT_TRUE(V.F.execute("(save \"" + Path + "\")")) << V.F.error();
  std::vector<unsigned char> Good = readBytes(Path);
  ASSERT_GT(Good.size(), 24u);

  for (size_t Len = 0; Len < Good.size(); ++Len) {
    writeBytes(Corrupt, std::vector<unsigned char>(Good.begin(),
                                                   Good.begin() + Len));
    V.expectLoadFails(Corrupt, ("truncation to " + std::to_string(Len))
                                   .c_str());
    if (::testing::Test::HasFailure())
      return;
  }
  std::remove(Path.c_str());
  std::remove(Corrupt.c_str());
}

TEST(SnapshotTest, TruncationInsideASectionChecksumIsATruncatedSection) {
  // The truncation sweep trips the whole-file checksum first. Here the
  // file checksum is repaired after cutting the first section's checksum
  // word short, so the section framing itself must reject the file.
  const std::string Path = tmpPath("snap_crc_trunc.snap");
  Victim V;
  ASSERT_TRUE(V.F.execute("(save \"" + Path + "\")")) << V.F.error();
  std::vector<unsigned char> Good = readBytes(Path);
  // Envelope header (magic, version, flags, section count), then the
  // first frame: u32 id, u64 payload length, payload, u32 checksum.
  constexpr size_t Header = 8 + 4 + 4 + 4;
  ASSERT_GT(Good.size(), Header + 12);
  uint64_t Len = 0;
  for (int I = 0; I < 8; ++I)
    Len |= static_cast<uint64_t>(Good[Header + 4 + static_cast<size_t>(I)])
           << (8 * I);
  size_t CrcWord = Header + 12 + static_cast<size_t>(Len);
  ASSERT_LT(CrcWord + 4, Good.size());

  for (size_t Kept = 0; Kept < 4; ++Kept) {
    std::vector<unsigned char> Bytes(Good.begin(),
                                     Good.begin() + CrcWord + Kept);
    uint32_t Crc =
        crc32cFinish(crc32cUpdate(crc32cInit(), Bytes.data(), Bytes.size()));
    for (int I = 0; I < 4; ++I)
      Bytes.push_back(static_cast<unsigned char>(Crc >> (8 * I)));
    writeBytes(Path, Bytes);
    std::string Context = std::to_string(Kept) + " checksum bytes kept";
    V.expectLoadFails(Path, Context.c_str());
    EXPECT_NE(V.F.error().find("truncated"), std::string::npos)
        << Context << ": " << V.F.error();
  }
  std::remove(Path.c_str());
}

TEST(SnapshotTest, VersionSkewIsRejected) {
  const std::string Path = tmpPath("snap_version.snap");
  Victim V;
  ASSERT_TRUE(V.F.execute("(save \"" + Path + "\")")) << V.F.error();
  std::vector<unsigned char> Bytes = readBytes(Path);
  ASSERT_GT(Bytes.size(), 24u);

  // Bump the version field (bytes 8..11, little-endian) and repair the
  // trailing whole-file checksum so the version check itself is what
  // rejects the file.
  Bytes[8] = 2;
  uint32_t Crc = crc32cFinish(
      crc32cUpdate(crc32cInit(), Bytes.data(), Bytes.size() - 4));
  for (int I = 0; I < 4; ++I)
    Bytes[Bytes.size() - 4 + static_cast<size_t>(I)] =
        static_cast<unsigned char>(Crc >> (8 * I));
  writeBytes(Path, Bytes);

  V.expectLoadFails(Path, "version skew");
  EXPECT_NE(V.F.error().find("unsupported snapshot version"),
            std::string::npos)
      << V.F.error();
  std::remove(Path.c_str());
}

TEST(SnapshotTest, DecreasingRowStampsAreRejected) {
  // Stamps never decrease in row order, and the loader holds a file to
  // that: a row stamped below its predecessor (both still no later than
  // the saved clock, and the content hash is over cells only) is refused
  // once both checksums are repaired.
  const std::string Path = tmpPath("snap_stamps.snap");
  Frontend F;
  ASSERT_TRUE(F.execute("(relation r (i64)) (run 1) (r 1) (run 1) (r 2)"))
      << F.error();
  FunctionId R = 0;
  ASSERT_TRUE(F.graph().lookupFunctionName("r", R));
  const Table &T = *F.graph().function(R).Storage;
  ASSERT_EQ(T.rowCount(), 2u);
  uint32_t FirstStamp = T.stamp(0);
  ASSERT_GT(FirstStamp, 0u);
  ASSERT_LT(FirstStamp, T.stamp(1));
  StateFingerprint Before = fingerprint(F);
  ASSERT_TRUE(F.execute("(save \"" + Path + "\")")) << F.error();
  std::vector<unsigned char> Bytes = readBytes(Path);

  auto ReadLE = [&](size_t Off, int Width) {
    uint64_t V = 0;
    for (int I = 0; I < Width; ++I)
      V |= uint64_t(Bytes[Off + static_cast<size_t>(I)]) << (8 * I);
    return V;
  };
  auto WriteU32 = [&](size_t Off, uint32_t V) {
    for (int I = 0; I < 4; ++I)
      Bytes[Off + static_cast<size_t>(I)] =
          static_cast<unsigned char>(V >> (8 * I));
  };
  // Find the TABLES section (id 9): a 20-byte header, then frames of id
  // u32 | length u64 | payload | crc32c u32.
  size_t Off = 20;
  while (Off + 12 <= Bytes.size() && ReadLE(Off, 4) != 9)
    Off += 12 + ReadLE(Off + 4, 8) + 4;
  ASSERT_LE(Off + 12, Bytes.size());
  size_t Payload = Off + 12;
  size_t PayloadLen = ReadLE(Off + 4, 8);
  // Payload: table count u32, then per table a row count u64 and its rows,
  // each a stamp u32 and rowWidth() values of sort u32 | bits u64.
  size_t Row = Payload + 4;
  for (FunctionId G = 0; G < R; ++G) {
    const Table &Other = *F.graph().function(G).Storage;
    Row += 8 + Other.liveCount() * (4 + 12 * Other.rowWidth());
  }
  ASSERT_EQ(ReadLE(Row, 8), 2u);
  size_t Second = Row + 8 + 4 + 12 * T.rowWidth();
  ASSERT_EQ(ReadLE(Second, 4), T.stamp(1));
  WriteU32(Second, FirstStamp - 1);
  WriteU32(Payload + PayloadLen, crc32c(Bytes.data() + Payload, PayloadLen));
  WriteU32(Bytes.size() - 4, crc32cFinish(crc32cUpdate(
                                 crc32cInit(), Bytes.data(), Bytes.size() - 4)));
  writeBytes(Path, Bytes);

  EXPECT_FALSE(F.execute("(load \"" + Path + "\")"));
  EXPECT_EQ(F.lastError().Kind, ErrKind::IO) << F.error();
  EXPECT_NE(F.error().find("row stamps out of order"), std::string::npos)
      << F.error();
  EXPECT_EQ(fingerprint(F), Before);
  std::remove(Path.c_str());
}

TEST(SnapshotTest, RebuildFlagDisagreeingWithTheWorklistIsRejected) {
  // META's rebuild flag is the writer's needsRebuild(), which is exactly
  // "the dirty worklist is non-empty". A file whose flag says otherwise is
  // refused once both checksums are repaired: with flag 0 over pending
  // losers, nothing would ever rebuild them.
  for (bool Pending : {false, true}) {
    SCOPED_TRACE(Pending ? "pending unions, flag cleared"
                         : "no pending unions, flag set");
    const std::string Path = tmpPath("snap_rebuild_flag.snap");
    Frontend F;
    ASSERT_TRUE(F.execute("(datatype E (A) (B)) (define a (A)) (define b (B))"))
        << F.error();
    if (Pending) {
      ASSERT_TRUE(F.execute("(union a b)")) << F.error();
    }
    ASSERT_EQ(F.graph().needsRebuild(), Pending);
    StateFingerprint Before = fingerprint(F);
    ASSERT_TRUE(F.execute("(save \"" + Path + "\")")) << F.error();
    std::vector<unsigned char> Bytes = readBytes(Path);

    // The META section (id 1) comes first, after the 20-byte header:
    // id u32 | length u64 | payload | crc32c u32. Its payload starts with
    // the clock (u32), then the flag (u8).
    size_t Off = 20;
    ASSERT_EQ(Bytes[Off], 1u);
    size_t Payload = Off + 12;
    size_t PayloadLen = 0;
    for (int I = 0; I < 8; ++I)
      PayloadLen |= size_t(Bytes[Off + 4 + static_cast<size_t>(I)]) << (8 * I);
    ASSERT_EQ(Bytes[Payload + 4], Pending ? 1u : 0u);
    Bytes[Payload + 4] = Pending ? 0 : 1;
    auto WriteU32 = [&](size_t At, uint32_t V) {
      for (int I = 0; I < 4; ++I)
        Bytes[At + static_cast<size_t>(I)] =
            static_cast<unsigned char>(V >> (8 * I));
    };
    WriteU32(Payload + PayloadLen, crc32c(Bytes.data() + Payload, PayloadLen));
    WriteU32(Bytes.size() - 4,
             crc32cFinish(crc32cUpdate(crc32cInit(), Bytes.data(),
                                       Bytes.size() - 4)));
    writeBytes(Path, Bytes);

    EXPECT_FALSE(F.execute("(load \"" + Path + "\")"));
    EXPECT_EQ(F.lastError().Kind, ErrKind::IO) << F.error();
    EXPECT_NE(F.error().find("rebuild flag disagrees with dirty worklist"),
              std::string::npos)
        << F.error();
    EXPECT_EQ(fingerprint(F), Before);
    EXPECT_EQ(F.graph().needsRebuild(), Pending);
    std::remove(Path.c_str());
  }
}

TEST(SnapshotTest, DeclarationMismatchIsRejected) {
  const std::string Path = tmpPath("snap_mismatch.snap");
  Victim V;
  ASSERT_TRUE(V.F.execute("(save \"" + Path + "\")")) << V.F.error();

  // A database whose declarations are not a prefix of the snapshot's
  // (different first relation) must reject the load untouched.
  Frontend Other;
  ASSERT_TRUE(Other.execute("(relation zzz (i64 i64))")) << Other.error();
  StateFingerprint Before = fingerprint(Other);
  EXPECT_FALSE(Other.execute("(load \"" + Path + "\")"));
  EXPECT_EQ(Other.lastError().Kind, ErrKind::IO) << Other.error();
  EXPECT_NE(Other.error().find("declaration mismatch"), std::string::npos)
      << Other.error();
  EXPECT_EQ(fingerprint(Other), Before);
  std::remove(Path.c_str());
}

namespace {

/// The Fig. 8 native Steensgaard encoding, split so the rules can be
/// re-declared over a loaded snapshot.
const char *PointsToSchema = R"(
  (sort Obj)
  (relation allocR (i64 i64))
  (relation copyR (i64 i64))
  (relation loadR (i64 i64))
  (relation storeR (i64 i64))
  (relation gepR (i64 i64 i64))
  (relation fieldAllocR (i64 i64 i64))
  (function objOf (i64) Obj)
  (function vpt (i64) Obj)
  (function contents (Obj) Obj)
)";

const char *PointsToRules = R"(
  (rule ((allocR v a)) ((union (vpt v) (objOf a))))
  (rule ((copyR d s)) ((union (vpt d) (vpt s))))
  (rule ((loadR d s)) ((union (vpt d) (contents (vpt s)))))
  (rule ((storeR d s)) ((union (contents (vpt d)) (vpt s))))
  (rule ((gepR d b f) (fieldAllocR a f fa) (= (vpt b) (objOf a)))
        ((union (vpt d) (objOf fa))))
  (rule ((fieldAllocR a f fa) (fieldAllocR b f fb)
         (= (objOf a) (objOf b)))
        ((union (objOf fa) (objOf fb))))
)";

/// \p P's facts as egglog text.
std::string pointsToFacts(const pointsto::Program &P) {
  std::string Facts;
  auto Fact = [&](const char *Rel, std::initializer_list<uint32_t> Args) {
    Facts += "(";
    Facts += Rel;
    for (uint32_t Arg : Args)
      Facts += " " + std::to_string(Arg);
    Facts += ")\n";
  };
  for (auto [V, A] : P.Allocs)
    Fact("allocR", {V, A});
  for (auto [D, S] : P.Copies)
    Fact("copyR", {D, S});
  for (auto [D, S] : P.Loads)
    Fact("loadR", {D, S});
  for (auto [D, S] : P.Stores)
    Fact("storeR", {D, S});
  for (auto [D, B, Field] : P.Geps)
    Fact("gepR", {D, B, Field});
  for (uint32_t A = 0; A < P.NumBaseAllocs; ++A)
    for (uint32_t Field = 0; Field < P.NumFields; ++Field)
      Fact("fieldAllocR", {A, Field, P.fieldAlloc(A, Field)});
  return Facts;
}

/// Schema, rules and facts from scratch, saturated.
void coldPointsTo(Frontend &F, const std::string &Facts) {
  ASSERT_TRUE(F.execute(PointsToSchema)) << F.error();
  ASSERT_TRUE(F.execute(PointsToRules)) << F.error();
  ASSERT_TRUE(F.execute(Facts)) << F.error();
  ASSERT_TRUE(F.execute("(run 1000000)")) << F.error();
}

} // namespace

TEST(SnapshotTest, PointsToWarmStartReproducesColdFixpoint) {
  // Save a saturated points-to database; a fresh frontend that loads it,
  // re-declares the rules and re-runs (semi-naive finds nothing new) must
  // hold exactly the cold fixpoint, as must a second cold run.
  const std::string Path = tmpPath("snap_pointsto.snap");
  pointsto::GeneratorOptions Options;
  Options.Seed = 5;
  Options.Size = 2000;
  std::string Facts =
      pointsToFacts(pointsto::generateProgram("warm_start", Options));

  Frontend Baseline;
  coldPointsTo(Baseline, Facts);
  if (HasFatalFailure())
    return;
  uint64_t BaselineHash = Baseline.graph().liveContentHash();
  EggError Err;
  ASSERT_TRUE(saveSnapshot(Baseline.graph(), Path, Err)) << Err.Message;

  Frontend Cold;
  coldPointsTo(Cold, Facts);
  if (HasFatalFailure())
    return;

  Frontend Warm;
  ASSERT_TRUE(loadSnapshot(Warm.graph(), Path, Err)) << Err.Message;
  ASSERT_TRUE(Warm.execute(PointsToRules)) << Warm.error();
  ASSERT_TRUE(Warm.execute("(run 1000000)")) << Warm.error();
  EXPECT_EQ(Warm.graph().liveContentHash(), BaselineHash);
  EXPECT_EQ(Warm.graph().liveContentHash(), Cold.graph().liveContentHash());
  std::remove(Path.c_str());
}

#if EGGLOG_FAILPOINTS_ENABLED

namespace {
struct DisarmGuard {
  DisarmGuard() { failpoints::disarm(); }
  ~DisarmGuard() { failpoints::disarm(); }
};
} // namespace

TEST(SnapshotTest, WriterFaultSweepNeverLosesPreviousSnapshot) {
  // The writer hits "snapshot.write" before the tmp-file open, between
  // 64KB chunks, before fsync, and before the rename. A fault at any of
  // those points must leave the previously saved snapshot byte-identical
  // and loadable, and must leave no *.tmp litter behind.
  DisarmGuard Guard;
  const std::string Path = tmpPath("snap_fault.snap");
  const std::string Tmp = Path + ".tmp";
  Victim V;
  ASSERT_TRUE(V.F.execute("(save \"" + Path + "\")")) << V.F.error();
  std::vector<unsigned char> V1 = readBytes(Path);

  // Diverge so the overwrite would actually change the file.
  ASSERT_TRUE(V.F.execute("(edge 10 11) (run 1)")) << V.F.error();
  StateFingerprint Mutated = fingerprint(V.F);

  size_t Faults = 0;
  for (uint64_t K = 1;; ++K) {
    failpoints::arm("snapshot.write", K);
    bool Ok = V.F.execute("(save \"" + Path + "\")");
    failpoints::disarm();
    if (Ok)
      break;
    ++Faults;
    ASSERT_NE(V.F.error().find("injected fault"), std::string::npos)
        << "save failed for another reason: " << V.F.error();
    // The old snapshot survives the crash, the partial write is cleaned
    // up, and the live database is untouched.
    EXPECT_EQ(readBytes(Path), V1) << "previous snapshot lost at hit " << K;
    EXPECT_FALSE(fileExists(Tmp)) << "tmp file leaked at hit " << K;
    EXPECT_EQ(fingerprint(V.F), Mutated) << "save mutated state at hit "
                                         << K;
    Frontend Reader;
    ASSERT_TRUE(Reader.execute("(load \"" + Path + "\")"))
        << "old snapshot unreadable at hit " << K << ": " << Reader.error();
    EXPECT_EQ(fingerprint(Reader), V.Before);
    if (::testing::Test::HasFailure())
      return;
    ASSERT_LT(K, 64u) << "snapshot.write sweep did not terminate";
  }
  // The sweep reached every failpoint (open, chunk, fsync, rename).
  EXPECT_GE(Faults, 4u);

  // The surviving clean save wrote the mutated state.
  Frontend Reader;
  ASSERT_TRUE(Reader.execute("(load \"" + Path + "\")")) << Reader.error();
  EXPECT_EQ(fingerprint(Reader), Mutated);
  std::remove(Path.c_str());
}

#endif // EGGLOG_FAILPOINTS_ENABLED
