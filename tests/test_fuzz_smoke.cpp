// Seeded random-mutation fuzz smoke over the service's network-facing
// parsers: io/json (JsonValue::parse under JsonParseLimits) and
// io/envelope (parse_request_envelope). The contract under test is the
// hardened-input rule the daemon relies on: ANY byte string either parses
// or throws a coded semsim::Error — never a crash, never UB, never an
// unbounded allocation. CI runs this binary under ASan/UBSan (asan-ubsan
// and fault-injection jobs), which is where the "no UB" half gets teeth.
//
// This is a smoke test, not a coverage-guided fuzzer: a SplitMix64 chain
// (fixed seed, so failures reproduce exactly) drives byte flips,
// truncations, insertions, and splices of valid request envelopes, plus
// structured garbage from a small JSON-ish alphabet. A few thousand cases
// run in well under a second.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "base/error.h"
#include "base/random.h"
#include "io/envelope.h"
#include "io/json.h"

namespace semsim {
namespace {

constexpr char kSweepInput[] = R"(
num ext 3
num nodes 4
junc 1 1 4 1meg 1a
junc 2 4 2 1meg 1a
cap 3 4 3a
vdc 3 0.0
symm 2
temp 5
record 1 2
jumps 2000
sweep 1 0.01 0.002
)";

std::uint64_t draw(std::uint64_t* state) {
  *state = splitmix64_mix(*state);
  return *state;
}

/// Seed corpus: one valid envelope per verb, covering every payload shape
/// the codec can emit (submit with deadline/client/ensemble/fault
/// included).
std::vector<std::string> corpus() {
  std::vector<std::string> lines;
  {
    RequestEnvelope env;
    env.verb = RequestEnvelope::Verb::kSubmit;
    env.netlist = kSweepInput;
    env.seed = 7;
    env.priority = -2;
    env.deadline_ms = 60000;
    env.client = "fuzz";
    env.stop.max_events = 5000;
    env.retry.strict = true;
    FaultSpec f;
    f.kind = FaultKind::kNanRate;
    f.at_event = 10;
    env.fault.faults.push_back(f);
    env.ensemble.enabled = true;
    env.ensemble.replicas = 8;
    env.partition.enabled = true;
    env.partition.clusters = 4;
    lines.push_back(encode_request_envelope(env));
  }
  for (const auto verb :
       {RequestEnvelope::Verb::kPing, RequestEnvelope::Verb::kStatus,
        RequestEnvelope::Verb::kResult, RequestEnvelope::Verb::kCancel,
        RequestEnvelope::Verb::kStats, RequestEnvelope::Verb::kShutdown}) {
    RequestEnvelope env;
    env.verb = verb;
    env.job_id = 3;
    lines.push_back(encode_request_envelope(env));
  }
  return lines;
}

/// One seeded mutation of `base`: flip / truncate / insert / splice.
std::string mutate(const std::string& base, std::uint64_t* state) {
  std::string s = base;
  const std::uint64_t kind = draw(state) % 4;
  if (s.empty()) return std::string(1, static_cast<char>(draw(state) & 0xFF));
  switch (kind) {
    case 0: {  // flip 1..8 bytes
      const std::uint64_t flips = 1 + draw(state) % 8;
      for (std::uint64_t i = 0; i < flips; ++i) {
        s[draw(state) % s.size()] = static_cast<char>(draw(state) & 0xFF);
      }
      break;
    }
    case 1:  // truncate (torn line)
      s.resize(draw(state) % s.size());
      break;
    case 2: {  // insert noise
      const char noise[] = "{}[]\",:0123456789eE+-.\\tru fals nul\x00\xFF\n";
      const std::uint64_t count = 1 + draw(state) % 16;
      for (std::uint64_t i = 0; i < count; ++i) {
        s.insert(draw(state) % (s.size() + 1), 1,
                 noise[draw(state) % (sizeof(noise) - 1)]);
      }
      break;
    }
    default: {  // splice two halves at random cut points
      const std::string t = base;
      s = s.substr(0, draw(state) % (s.size() + 1)) +
          t.substr(draw(state) % (t.size() + 1));
      break;
    }
  }
  return s;
}

/// The property: parse or coded throw. Anything else (other exception
/// types, crash, sanitizer report) fails the test / the CI job.
void expect_coded(const std::string& line, const JsonParseLimits& limits) {
  try {
    parse_request_envelope(line, limits);
  } catch (const Error& e) {
    EXPECT_NE(e.code(), ErrorCode::kNone) << "uncoded error for: " << line;
  }
  try {
    JsonValue::parse(line, limits);
  } catch (const Error& e) {
    EXPECT_NE(e.code(), ErrorCode::kNone);
  }
}

TEST(FuzzSmoke, MutatedEnvelopesParseOrThrowCodedErrors) {
  const std::vector<std::string> seeds = corpus();
  JsonParseLimits limits;
  limits.max_bytes = 1 << 20;
  limits.max_depth = 64;
  std::uint64_t state = derive_stream_seed(0xF022ULL, 1);
  for (int round = 0; round < 2000; ++round) {
    const std::string& base = seeds[draw(&state) % seeds.size()];
    expect_coded(mutate(base, &state), limits);
  }
}

TEST(FuzzSmoke, RandomGarbageNeverCrashesTheParsers) {
  JsonParseLimits limits;
  limits.max_bytes = 4096;
  limits.max_depth = 16;
  std::uint64_t state = derive_stream_seed(0xF022ULL, 2);
  const char alphabet[] = "{}[]\":,0123456789.eE+-truefalsn \\\"\t\n\x01\xFF";
  for (int round = 0; round < 2000; ++round) {
    std::string s(draw(&state) % 256, ' ');
    for (char& c : s) {
      c = alphabet[draw(&state) % (sizeof(alphabet) - 1)];
    }
    expect_coded(s, limits);
  }
}

TEST(FuzzSmoke, PartitionObjectRoundTripsAndRejectsUnknownFields) {
  RequestEnvelope env;
  env.verb = RequestEnvelope::Verb::kSubmit;
  env.netlist = kSweepInput;
  env.seed = 7;
  env.partition.enabled = true;
  env.partition.clusters = 4;
  env.ensemble.enabled = true;
  env.ensemble.replicas = 3;
  const std::string line = encode_request_envelope(env);

  const RequestEnvelope back = parse_request_envelope(line, {});
  EXPECT_TRUE(back.partition.enabled);
  EXPECT_EQ(back.partition.clusters, 4u);
  EXPECT_TRUE(back.ensemble.enabled);
  EXPECT_EQ(back.ensemble.replicas, 3u);

  // Both spec objects are parsed STRICTLY: a typo'd knob must reject the
  // request instead of silently running with its default (io/envelope.cpp).
  for (const std::string section : {"partition", "ensemble"}) {
    const std::string marker = "\"" + section + "\":{";
    const std::size_t at = line.find(marker);
    ASSERT_NE(at, std::string::npos) << line;
    std::string bogus = line;
    bogus.insert(at + marker.size(), "\"bogus\":1,");
    try {
      parse_request_envelope(bogus, {});
      FAIL() << "unknown " << section << " field was accepted: " << bogus;
    } catch (const ParseError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kParseSyntax);
      EXPECT_NE(std::string(e.what()).find("bogus"), std::string::npos);
      EXPECT_NE(std::string(e.what()).find(section), std::string::npos);
    }
  }
}

TEST(FuzzSmoke, PathologicalShapesStayBounded) {
  JsonParseLimits limits;
  limits.max_bytes = 64 << 10;
  limits.max_depth = 32;
  // Deep nesting, long strings, huge numbers, unterminated everything —
  // the known parser stressors, each must come back as a coded Error.
  const std::vector<std::string> shapes = {
      std::string(10000, '['),
      "{\"a\":" + std::string(10000, '{'),
      "\"" + std::string(50000, 'x'),
      std::string(200, '-') + "1e99999",
      "{\"schema\":\"semsim.request/v1\",\"verb\":\"submit\",\"seed\":1e400}",
      "[[[[[[[[[[\"\\u00",
  };
  for (const std::string& s : shapes) expect_coded(s, limits);
}

}  // namespace
}  // namespace semsim
