// WSM framing under channel faults: reordering, duplication, truncation
// and bit-flip corruption must never produce a wrong reassembly — either
// the original payload comes back byte-identical, or reassembly reports
// failure. Property-style over seeded FaultyChannel draws.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"
#include "v2v/channel.hpp"
#include "v2v/wsm.hpp"

namespace rups::v2v {
namespace {

std::vector<std::uint8_t> patterned_payload(std::size_t n,
                                            std::uint64_t seed) {
  std::vector<std::uint8_t> out(n);
  util::Rng rng(seed);
  for (auto& b : out) {
    b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  return out;
}

TEST(WsmFaults, ChecksumDetectsBitFlip) {
  const auto payload = patterned_payload(3000, 1);
  auto packets = WsmFraming::fragment(payload, 42);
  ASSERT_TRUE(WsmFraming::validate(packets[1]));
  packets[1].payload[17] ^= 0x04;
  EXPECT_FALSE(WsmFraming::validate(packets[1]));
  EXPECT_FALSE(WsmFraming::reassemble(packets).has_value());
}

TEST(WsmFaults, ChecksumDetectsTruncation) {
  const auto payload = patterned_payload(4000, 2);
  auto packets = WsmFraming::fragment(payload, 7);
  packets[2].payload.resize(packets[2].payload.size() / 2);
  EXPECT_FALSE(WsmFraming::validate(packets[2]));
  EXPECT_FALSE(WsmFraming::reassemble(packets).has_value());
}

TEST(WsmFaults, ChecksumCoversHeaderFields) {
  const auto payload = patterned_payload(1000, 3);
  auto packets = WsmFraming::fragment(payload, 9);
  packets[0].seq = 1;  // header damage, payload intact
  EXPECT_FALSE(WsmFraming::validate(packets[0]));
}

TEST(WsmFaults, FragmentRejectsOversizedPayloads) {
  // 16-bit seq/total boundary: 65535 fragments is addressable, 65536 must
  // be rejected loudly instead of silently wrapping the counters.
  const std::vector<std::uint8_t> at_limit(65535, 0xab);
  const auto packets = WsmFraming::fragment(at_limit, 1, /*max_payload=*/1);
  EXPECT_EQ(packets.size(), 65535u);
  EXPECT_EQ(packets.back().total, 65535u);
  EXPECT_EQ(packets.back().seq, 65534u);
  const auto back = WsmFraming::reassemble(packets);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->size(), at_limit.size());

  const std::vector<std::uint8_t> over_limit(65536, 0xcd);
  EXPECT_THROW((void)WsmFraming::fragment(over_limit, 1, /*max_payload=*/1),
               std::length_error);
}

TEST(WsmFaults, ReorderingAndDuplicationAreHarmless) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto payload = patterned_payload(9000 + seed * 137, seed);
    FaultConfig cfg;
    cfg.reorder_rate = 0.5;
    cfg.reorder_span = 6;
    cfg.duplicate_rate = 0.3;
    FaultyChannel channel(seed, cfg);
    auto arrived =
        channel.transmit(WsmFraming::fragment(payload, 5, /*max_payload=*/512));
    const auto late = channel.flush();
    arrived.insert(arrived.end(), late.begin(), late.end());
    const auto back = WsmFraming::reassemble(arrived);
    ASSERT_TRUE(back.has_value()) << "seed " << seed;
    EXPECT_EQ(*back, payload) << "seed " << seed;
  }
}

// The core property: under ANY mix of faults, survivors that validate are
// byte-identical to what was sent, and reassembly either reproduces the
// payload exactly or fails — never a silent wrong answer.
TEST(WsmFaults, PropertyNoSilentCorruption) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    util::Rng dice(seed * 977);
    const auto payload =
        patterned_payload(2000 + static_cast<std::size_t>(
                                     dice.uniform_int(0, 12'000)),
                          seed);
    FaultConfig cfg;
    cfg.loss_rate = dice.uniform(0.0, 0.3);
    cfg.burst_loss = dice.bernoulli(0.5);
    cfg.p_good_to_bad = 0.05;
    cfg.p_bad_to_good = 0.3;
    cfg.loss_rate_bad = 0.9;
    cfg.reorder_rate = dice.uniform(0.0, 0.4);
    cfg.duplicate_rate = dice.uniform(0.0, 0.2);
    cfg.truncate_rate = dice.uniform(0.0, 0.2);
    cfg.bit_flip_rate = dice.uniform(0.0, 0.2);
    FaultyChannel channel(seed, cfg);

    const auto sent = WsmFraming::fragment(payload, 3, /*max_payload=*/700);
    auto arrived = channel.transmit(sent);
    const auto late = channel.flush();
    arrived.insert(arrived.end(), late.begin(), late.end());

    std::vector<char> got(sent.size(), 0);
    std::vector<WsmPacket> valid;
    for (const auto& p : arrived) {
      if (!WsmFraming::validate(p)) continue;  // damage must be detectable
      ASSERT_LT(p.seq, sent.size()) << "seed " << seed;
      EXPECT_EQ(p.payload, sent[p.seq].payload) << "seed " << seed;
      got[p.seq] = 1;
      valid.push_back(p);
    }
    bool all = !valid.empty();
    for (char g : got) all = all && g != 0;
    const auto back = WsmFraming::reassemble(valid);
    EXPECT_EQ(back.has_value(), all) << "seed " << seed;
    if (back.has_value()) {
      EXPECT_EQ(*back, payload) << "seed " << seed;
    }
  }
}

TEST(WsmFaults, GilbertElliottLossIsBursty) {
  // Compare the burst profile against i.i.d. loss at the same average
  // rate: the GE chain must produce longer loss runs.
  auto longest_run = [](FaultyChannel& ch, std::size_t packets) {
    std::size_t longest = 0, run = 0, lost_before = 0;
    for (std::size_t i = 0; i < packets; ++i) {
      WsmPacket p;
      p.total = 1;
      const bool lost = ch.transmit({p}).empty();
      run = lost ? run + 1 : 0;
      longest = std::max(longest, run);
      (void)lost_before;
    }
    return longest;
  };
  FaultConfig ge;
  ge.burst_loss = true;
  ge.p_good_to_bad = 0.02;
  ge.p_bad_to_good = 0.1;   // bursts ~10 packets long
  ge.loss_rate_bad = 0.95;
  FaultyChannel bursty(11, ge);
  FaultyChannel iid(11, FaultConfig::iid(0.16));  // same stationary loss

  const std::size_t n = 4000;
  const std::size_t ge_run = longest_run(bursty, n);
  const std::size_t iid_run = longest_run(iid, n);
  EXPECT_GT(ge_run, iid_run);
  EXPECT_GE(ge_run, 8u);

  const auto& stats = bursty.stats();
  const double loss_rate = static_cast<double>(stats.lost) /
                           static_cast<double>(stats.offered);
  EXPECT_NEAR(loss_rate, 0.16, 0.06);  // matches the stationary average
}

TEST(WsmFaults, ChannelIsReplayable) {
  const auto payload = patterned_payload(20'000, 4);
  const auto sent = WsmFraming::fragment(payload, 8, /*max_payload=*/256);
  auto run_once = [&](std::uint64_t seed) {
    FaultyChannel channel(seed, FaultConfig::tunnel());
    auto arrived = channel.transmit(sent);
    const auto late = channel.flush();
    arrived.insert(arrived.end(), late.begin(), late.end());
    std::vector<std::pair<std::uint16_t, std::vector<std::uint8_t>>> trace;
    trace.reserve(arrived.size());
    for (const auto& p : arrived) trace.emplace_back(p.seq, p.payload);
    return trace;
  };
  EXPECT_EQ(run_once(77), run_once(77));
  EXPECT_NE(run_once(77), run_once(78));
}

TEST(WsmFaults, CleanProfilePassesEverythingThrough) {
  const auto payload = patterned_payload(8000, 5);
  const auto sent = WsmFraming::fragment(payload, 2);
  FaultyChannel channel(1, FaultConfig::clean());
  const auto arrived = channel.transmit(sent);
  ASSERT_EQ(arrived.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(arrived[i].seq, sent[i].seq);
    EXPECT_EQ(arrived[i].payload, sent[i].payload);
  }
  EXPECT_EQ(channel.stats().lost, 0u);
  EXPECT_EQ(channel.stats().corrupted, 0u);
}

TEST(WsmFaults, NamedProfilesResolve) {
  EXPECT_TRUE(FaultConfig::by_name("urban").burst_loss);
  EXPECT_TRUE(FaultConfig::by_name("tunnel").burst_loss);
  EXPECT_GT(FaultConfig::by_name("congested").reorder_rate, 0.0);
  EXPECT_EQ(FaultConfig::by_name("nonsense").loss_rate, 0.0);
  EXPECT_EQ(FaultConfig::by_name(nullptr).loss_rate, 0.0);
}

}  // namespace
}  // namespace rups::v2v
