// util/hash.h: stability (golden vectors fixed forever), chunk invariance,
// field separation, and the benchmark content hash built on top of it
// (netlist/io.h).  The golden digests were computed with an independent
// FNV-1a implementation; if any of them ever changes, every persisted
// cache key and benchmark_hash in the wild silently invalidates — treat a
// failure here as an interface break, not a test to update.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>

#include "cts/scenario.h"
#include "netlist/generators.h"
#include "netlist/io.h"
#include "util/hash.h"

using namespace contango;

TEST(Fnv1a64, GoldenVectors) {
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);  // offset basis
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
  EXPECT_EQ(fnv1a64("contango"), 0x31b6efee9259dd7cULL);
}

TEST(Fnv1a64, StreamingMatchesOneShot) {
  // std::string() on the chunks matters: a bare literal with a state
  // argument would pick the (const void*, size_t) overload and read the
  // hash state as a byte count.
  const std::uint64_t whole = fnv1a64("contango");
  std::uint64_t state = fnv1a64(std::string("con"));
  state = fnv1a64(std::string("tan"), state);
  state = fnv1a64(std::string("go"), state);
  EXPECT_EQ(state, whole);
}

TEST(Fnv1a128, GoldenVectors) {
  EXPECT_EQ(fnv1a128("").hex(), "6c62272e07bb014262b821756295c58d");
  EXPECT_EQ(fnv1a128("a").hex(), "d228cb696f1a8caf78912b704e4a8964");
  EXPECT_EQ(fnv1a128("foobar").hex(), "343e1662793c64bf6f0d3597ba446f18");
  EXPECT_EQ(fnv1a128("contango").hex(), "112a1d5a7a659b5900b229d080fd8754");
}

TEST(Hash128, HexFormatAndComparisons) {
  Hash128 h;
  h.hi = 0x0123456789abcdefULL;
  h.lo = 0xfedcba9876543210ULL;
  EXPECT_EQ(h.hex(), "0123456789abcdeffedcba9876543210");
  EXPECT_EQ(h.hex().size(), 32u);

  Hash128 same = h;
  EXPECT_EQ(h, same);
  Hash128 lower;
  lower.hi = h.hi - 1;
  lower.lo = 0xffffffffffffffffULL;
  EXPECT_NE(h, lower);
  EXPECT_LT(lower, h);  // hi dominates regardless of lo
}

TEST(Hasher, ChunkInvariance) {
  const Hash128 whole = fnv1a128("the quick brown fox");
  Hasher h;
  h.update("the ").update("quick ").update("brown ").update("fox");
  EXPECT_EQ(h.digest(), whole);

  Hasher byte_at_a_time;
  const std::string s = "the quick brown fox";
  for (char c : s) byte_at_a_time.update(&c, 1);
  EXPECT_EQ(byte_at_a_time.digest(), whole);
}

TEST(Hasher, DigestIsNonDestructive) {
  Hasher h;
  h.update("abc");
  const Hash128 first = h.digest();
  EXPECT_EQ(h.digest(), first);  // digest() twice, same answer
  h.update("d");
  EXPECT_NE(h.digest(), first);  // and the hasher kept streaming
}

TEST(Hasher, Update64IsLittleEndian) {
  // update_u64 must feed explicit little-endian bytes, never the host
  // representation.  Golden digest of the LE bytes of 0x0123456789abcdef.
  Hasher h;
  h.update_u64(0x0123456789abcdefULL);
  EXPECT_EQ(h.digest().hex(), "0619098f38659878f047fc4523abfdfd");

  const unsigned char le[8] = {0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01};
  Hasher manual;
  manual.update(le, sizeof(le));
  EXPECT_EQ(manual.digest(), h.digest());
}

TEST(Hasher, FieldsCannotCollideByRechunking) {
  // Without length prefixes, ("ab","c") and ("a","bc") would hash equal.
  Hasher ab_c;
  ab_c.update_field("ab").update_field("c");
  Hasher a_bc;
  a_bc.update_field("a").update_field("bc");
  EXPECT_NE(ab_c.digest(), a_bc.digest());
}

TEST(Hasher, DoubleHashesBitPattern) {
  Hasher pos, neg;
  pos.update_double(0.0);
  neg.update_double(-0.0);
  EXPECT_NE(pos.digest(), neg.digest());  // bit-tracking, not ==

  Hasher a, b;
  a.update_double(0.1 + 0.2);
  b.update_double(0.3);
  EXPECT_NE(a.digest(), b.digest());  // famously different bits
}

TEST(BenchmarkContentHash, StableAcrossRoundTrip) {
  const Benchmark bench = make_scenario("ring", /*seed=*/3);
  const Hash128 direct = benchmark_content_hash(bench);

  // Export + reparse must hash identically (write_benchmark is a
  // deterministic round trip) — this is what lets a client submitting a
  // .bench file hit the cache entry of the generated scenario.
  std::ostringstream text;
  write_benchmark(bench, text);
  std::istringstream in(text.str());
  const Benchmark reparsed = read_benchmark(in);
  EXPECT_EQ(benchmark_content_hash(reparsed), direct);

  // And any information change must move the digest.
  Benchmark renamed = bench;
  renamed.name = "ring_renamed";
  EXPECT_NE(benchmark_content_hash(renamed), direct);
  Benchmark nudged = bench;
  nudged.sinks[0].cap += 1.0;
  EXPECT_NE(benchmark_content_hash(nudged), direct);
}

TEST(BenchmarkContentHash, SeedsAndFamiliesDiffer) {
  const Hash128 a = benchmark_content_hash(make_scenario("ring", 1));
  const Hash128 b = benchmark_content_hash(make_scenario("ring", 2));
  const Hash128 c = benchmark_content_hash(make_scenario("uniform", 1));
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  // Same family + seed regenerates the identical instance.
  EXPECT_EQ(benchmark_content_hash(make_scenario("ring", 1)), a);
}

TEST(BenchmarkContentHash, GoldenDigests) {
  // Pinned digests of the canonical text: a writer change that moves one
  // byte of a legacy file (ring), of the constraint directives (multidomain)
  // or of a large sink list (ti5k) fails here.
  EXPECT_EQ(benchmark_content_hash(make_scenario("ring", 1)).hex(), "06e624666f2a0293867220ae58e1b142");
  EXPECT_EQ(benchmark_content_hash(make_scenario("multidomain", 1)).hex(), "43a4328f75a315ee7209412c56785a34");
  EXPECT_EQ(benchmark_content_hash(generate_ti_like(5000, 77)).hex(), "d7243de80c2aac7341e6822345859416");
}
