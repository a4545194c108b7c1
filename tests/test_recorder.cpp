// Flight-recorder unit suite: seal triggers (the communicated-bytes phase
// window among them), the bounded overwrite-and-count ring, sparse-delta
// fidelity, epoch-file IO under hostile input, the serve aggregate's
// round-trip of seal reasons, the run-to-run diff math behind
// `commscope diff`, and the report renderers. The recorder is built the
// same way with telemetry off, so the notelemetry CI preset runs all of it.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/comm_diff.hpp"
#include "core/comm_matrix.hpp"
#include "core/epoch_io.hpp"
#include "core/flight_recorder.hpp"
#include "core/timeline_report.hpp"
#include "instrument/loop_registry.hpp"
#include "serve/session.hpp"
#include "support/textio.hpp"

namespace cc = commscope::core;
namespace ci = commscope::instrument;

namespace {

cc::FlightRecorderOptions opts(int threads, std::uint64_t every,
                               std::uint32_t ring = 0) {
  cc::FlightRecorderOptions o;
  o.threads = threads;
  o.every_accesses = every;
  o.capacity = ring;
  return o;
}

cc::FlightRecorderOptions bytes_opts(int threads, std::uint64_t every_bytes) {
  cc::FlightRecorderOptions o;
  o.threads = threads;
  o.every_bytes = every_bytes;
  return o;
}

/// Hand-built timeline for the IO/diff/report halves (no live recorder
/// needed).
cc::EpochTimeline make_timeline() {
  cc::EpochTimeline t;
  t.threads = 4;
  t.sealed = 3;
  t.dropped = 1;
  t.loop_labels.emplace_back(7, "lu:k-loop");
  for (std::uint64_t i = 1; i <= 2; ++i) {
    cc::EpochSample e;
    e.index = i;
    e.first_access = i * 100;
    e.last_access = i * 100 + 100;
    e.dependencies = 5 * i;
    e.bytes = 64 * i;
    e.reason = i == 2 ? cc::EpochSeal::kFinalize : cc::EpochSeal::kAccesses;
    e.cells.push_back(cc::EpochCell{0, 1, 48 * i});
    e.cells.push_back(cc::EpochCell{2, 3, 16 * i});
    e.loops.push_back(cc::EpochLoopShare{ci::kNoLoop, 16 * i});
    e.loops.push_back(cc::EpochLoopShare{7, 48 * i});
    t.epochs.push_back(e);
  }
  return t;
}

}  // namespace

// --- data model (unconditional) --------------------------------------------

TEST(EpochModel, DenseReconstructionMatchesCells) {
  const cc::EpochTimeline t = make_timeline();
  const cc::Matrix m = t.epochs[0].dense(4);
  EXPECT_EQ(m.at(0, 1), 48u);
  EXPECT_EQ(m.at(2, 3), 16u);
  EXPECT_EQ(m.total(), 64u);
  const cc::Matrix sum = t.total();
  EXPECT_EQ(sum.at(0, 1), 48u + 96u);
  EXPECT_EQ(sum.total(), 64u + 128u);
}

TEST(EpochModel, LabelResolution) {
  const cc::EpochTimeline t = make_timeline();
  EXPECT_EQ(t.label_of(7), "lu:k-loop");
  EXPECT_EQ(t.label_of(ci::kNoLoop), "<root>");
  EXPECT_EQ(t.label_of(99), "loop#99");
}

TEST(EpochModel, SealReasonRoundTrip) {
  for (const cc::EpochSeal r :
       {cc::EpochSeal::kAccesses, cc::EpochSeal::kBatches, cc::EpochSeal::kTimer,
        cc::EpochSeal::kCheckpoint, cc::EpochSeal::kFinalize,
        cc::EpochSeal::kReplay, cc::EpochSeal::kBytes}) {
    EXPECT_EQ(cc::epoch_seal_from_string(cc::to_string(r)), r);
  }
  EXPECT_EQ(cc::to_string(cc::EpochSeal::kBytes), std::string("bytes"));
  EXPECT_THROW((void)cc::epoch_seal_from_string("bogus"), std::runtime_error);
}

// --- epoch IO (unconditional) ----------------------------------------------

TEST(EpochIo, RoundTripPreservesEverything) {
  const cc::EpochTimeline want = make_timeline();
  std::stringstream ss;
  cc::write_epochs(ss, want);
  const cc::EpochTimeline got = cc::read_epochs(ss);
  EXPECT_EQ(got.threads, want.threads);
  EXPECT_EQ(got.sealed, want.sealed);
  EXPECT_EQ(got.dropped, want.dropped);
  EXPECT_EQ(got.loop_labels, want.loop_labels);
  ASSERT_EQ(got.epochs.size(), want.epochs.size());
  for (std::size_t i = 0; i < want.epochs.size(); ++i) {
    EXPECT_EQ(got.epochs[i], want.epochs[i]) << "epoch " << i;
  }
}

TEST(EpochIo, BytesSealRoundTripsThroughFileAndServeAggregate) {
  cc::EpochTimeline want = make_timeline();
  want.epochs[0].reason = cc::EpochSeal::kBytes;
  std::stringstream ss;
  cc::write_epochs(ss, want);
  EXPECT_NE(ss.str().find(" reason bytes"), std::string::npos);
  const cc::EpochTimeline got = cc::read_epochs(ss);
  ASSERT_EQ(got.epochs.size(), want.epochs.size());
  EXPECT_EQ(got.epochs[0].reason, cc::EpochSeal::kBytes);
  EXPECT_EQ(got.epochs[1].reason, cc::EpochSeal::kFinalize);

  // The daemon merges a shipped timeline into its aggregate and persists the
  // aggregate in its snapshot; the seal reason survives both.
  commscope::serve::Aggregate agg(8, nullptr);
  for (const cc::EpochSample& e : got.epochs) agg.merge(got, e);
  ASSERT_EQ(agg.timeline().epochs.size(), 2u);
  EXPECT_EQ(agg.timeline().epochs[0].reason, cc::EpochSeal::kBytes);
  std::string blob;
  agg.serialize(blob);
  commscope::serve::Aggregate back(8, nullptr);
  commscope::support::TokenScanner sc(blob, "test");
  back.restore(sc);
  ASSERT_EQ(back.timeline().epochs.size(), 2u);
  EXPECT_EQ(back.timeline().epochs[0].reason, cc::EpochSeal::kBytes);
  EXPECT_TRUE(back.matrix() == agg.matrix());
}

TEST(EpochIo, UnknownSealReasonRejected) {
  std::stringstream ss;
  cc::write_epochs(ss, make_timeline());
  // Rename one reason and re-seal the CRC trailer, so the reader has to
  // refuse the reason itself (what a reader older than a new seal reason
  // does with it).
  std::string payload = ss.str();
  payload.erase(payload.rfind("crc32 "));
  const std::size_t pos = payload.find("reason accesses");
  ASSERT_NE(pos, std::string::npos);
  payload.replace(pos + 7, 8, "bytesxyz");
  std::istringstream in(commscope::support::with_crc_trailer(payload));
  try {
    (void)cc::read_epochs(in);
    FAIL() << "unknown seal reason accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("seal reason"), std::string::npos)
        << e.what();
  }
}

TEST(EpochIo, RejectsBadMagicTruncationAndCorruption) {
  std::stringstream ss;
  cc::write_epochs(ss, make_timeline());
  const std::string good = ss.str();

  {
    std::istringstream bad("commscope-matrix 1\n");
    EXPECT_THROW((void)cc::read_epochs(bad), std::runtime_error);
  }
  {
    std::istringstream truncated(good.substr(0, good.size() / 2));
    EXPECT_THROW((void)cc::read_epochs(truncated), std::runtime_error);
  }
  {
    // Flip a digit inside a payload line: the CRC trailer must catch it.
    std::string corrupt = good;
    const std::size_t pos = corrupt.find("bytes 64");
    ASSERT_NE(pos, std::string::npos);
    corrupt[pos + 6] = '9';
    std::istringstream in(corrupt);
    EXPECT_THROW((void)cc::read_epochs(in), std::runtime_error);
  }
  {
    // A hostile epoch count must be rejected before allocation.
    std::istringstream huge(
        "commscope-epochs 1\nthreads 4\nsealed 999999999999 dropped 0\n"
        "loops 0\n");
    EXPECT_THROW((void)cc::read_epochs(huge), std::runtime_error);
  }
}

// --- diff math (unconditional) ---------------------------------------------

TEST(CommDiff, SelfDiffIsExactlyZeroAndClean) {
  const cc::EpochTimeline t = make_timeline();
  const cc::TimelineDiff d = cc::diff_timelines(t, t);
  EXPECT_EQ(d.total.l1, 0u);
  EXPECT_EQ(d.total.max_cell, 0u);
  EXPECT_DOUBLE_EQ(d.total.norm_l1, 0.0);
  EXPECT_DOUBLE_EQ(d.worst_epoch_l1, 0.0);
  EXPECT_FALSE(d.regressed);
  EXPECT_NE(d.verdict.find("clean"), std::string::npos) << d.verdict;
}

TEST(CommDiff, MatrixDistanceKnownValues) {
  cc::Matrix a(2), b(2);
  a.at(0, 1) = 100;
  b.at(0, 1) = 60;
  b.at(1, 0) = 40;
  const cc::MatrixDistance d = cc::matrix_distance(a, b);
  EXPECT_EQ(d.l1, 80u);        // |100-60| + |0-40|
  EXPECT_EQ(d.max_cell, 40u);
  EXPECT_DOUBLE_EQ(d.norm_l1, 0.8);  // 80 / max(100, 100)
  EXPECT_DOUBLE_EQ(d.norm_max_cell, 0.4);
}

TEST(CommDiff, PadsMismatchedDimensions) {
  cc::Matrix a(2), b(4);
  a.at(0, 1) = 10;
  b.at(0, 1) = 10;
  b.at(3, 0) = 5;
  const cc::MatrixDistance d = cc::matrix_distance(a, b);
  EXPECT_EQ(d.l1, 5u);
  EXPECT_EQ(d.max_cell, 5u);
}

TEST(CommDiff, RegressionCrossesThresholdAndNamesIt) {
  cc::EpochTimeline a = make_timeline();
  cc::EpochTimeline b = make_timeline();
  b.epochs[1].cells[0].bytes *= 10;  // move real volume, not jitter
  const cc::TimelineDiff d = cc::diff_timelines(a, b);
  EXPECT_TRUE(d.regressed);
  EXPECT_NE(d.verdict.find("REGRESSED"), std::string::npos) << d.verdict;
}

TEST(CommDiff, LoopDriftIsKeyedByLabel) {
  cc::EpochTimeline a = make_timeline();
  cc::EpochTimeline b = make_timeline();
  // Same loop volume under a different id: label-keyed matching must see no
  // drift (registration order is not part of the contract).
  b.loop_labels.clear();
  b.loop_labels.emplace_back(12, "lu:k-loop");
  for (cc::EpochSample& e : b.epochs) {
    for (cc::EpochLoopShare& s : e.loops) {
      if (s.loop == 7) s.loop = 12;
    }
  }
  const cc::TimelineDiff d = cc::diff_timelines(a, b);
  for (const cc::LoopDrift& l : d.loops) {
    EXPECT_DOUBLE_EQ(l.drift, 0.0) << l.label;
  }
}

// --- bench schema: bench_common.hpp's writer, diff_bench's reader ---------

namespace {

const char* const kIngestProvenance =
    R"({"scale": "simsmall", "threads": 8, "simd": "avx2", "events": 2153752})";

std::string bench_point(const std::string& name, const std::string& unit,
                        double value, const std::string& tail = "") {
  std::ostringstream os;
  os << R"({"name": ")" << name << R"(", "unit": ")" << unit
     << R"(", "value": )" << value << R"(, "better": "higher")" << tail << "}";
  return os.str();
}

std::string bench_file(const std::vector<std::string>& points,
                       const std::string& provenance = kIngestProvenance,
                       const std::string& bench = "ingest_throughput") {
  std::string out = R"({"bench": ")" + bench + R"(", "provenance": )" +
                    provenance + R"(, "points": [)";
  for (std::size_t i = 0; i < points.size(); ++i) {
    out += (i == 0 ? "\n  " : ",\n  ") + points[i];
  }
  return out + "\n]}\n";
}

std::string rate0(double v) {
  return bench_point("batch_0.events_per_sec", "events/s", v);
}
std::string rate64(double v) {
  return bench_point("batch_64.events_per_sec", "events/s", v);
}
std::string speedup64(double v, const std::string& bound = R"(, "bound": 1)") {
  return bench_point("batch_64.speedup", "x", v, bound);
}

/// The refusal message of a diff that must not compare, or "" if it did.
std::string refusal(const std::string& base, const std::string& fresh) {
  try {
    (void)cc::diff_bench(base, fresh);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

}  // namespace

TEST(BenchDiff, FlagsEachPointThatGotWorse) {
  const std::string base = bench_file({rate0(1e6), rate64(3e6), speedup64(3)});
  const cc::BenchDiff self = cc::diff_bench(base, base);
  EXPECT_FALSE(self.regressed) << self.verdict;  // self-diff clean
  ASSERT_EQ(self.points.size(), 3u);
  EXPECT_EQ(self.points[1].name, "batch_64.events_per_sec");
  EXPECT_EQ(self.points[1].unit, "events/s");
  EXPECT_EQ(self.points[2].unit, "x");
  EXPECT_DOUBLE_EQ(self.points[1].base, 3e6);
  EXPECT_DOUBLE_EQ(self.points[1].change, 0.0);

  // -33% at batch 64 crosses the 25% gate; batch 0 did not move.
  const std::string slow = bench_file({rate0(1e6), rate64(2e6), speedup64(2)});
  const cc::BenchDiff d = cc::diff_bench(base, slow, 0.25);
  EXPECT_TRUE(d.regressed);
  ASSERT_EQ(d.points.size(), 3u);
  EXPECT_TRUE(d.points[0].failure.empty()) << d.points[0].failure;
  EXPECT_FALSE(d.points[1].failure.empty());
  EXPECT_NE(d.verdict.find("batch_64.events_per_sec"), std::string::npos)
      << d.verdict;
  // A wider threshold waves the same pair through.
  EXPECT_FALSE(cc::diff_bench(base, slow, 0.5).regressed);

  // `better` sets the direction: a lower-is-better point regresses upward.
  const std::string lat = bench_file(
      {R"({"name": "ack_p99", "unit": "ms", "value": 10, "better": "lower"})"});
  const std::string lat_up = bench_file(
      {R"({"name": "ack_p99", "unit": "ms", "value": 13, "better": "lower"})"});
  const std::string lat_down = bench_file(
      {R"({"name": "ack_p99", "unit": "ms", "value": 5, "better": "lower"})"});
  EXPECT_TRUE(cc::diff_bench(lat, lat_up).regressed);
  EXPECT_FALSE(cc::diff_bench(lat, lat_down).regressed);

  // Files outside the schema throw, the pre-schema sweep layout included.
  EXPECT_THROW((void)cc::diff_bench(R"({"not": "a bench"})", base),
               std::runtime_error);
  EXPECT_THROW(
      (void)cc::diff_bench(
          base, R"({"bench": "ingest_throughput", "sweep": [)"
                R"({"batch": 64, "events_per_sec": 3e6, "speedup": 3}]})"),
      std::runtime_error);
  EXPECT_THROW((void)cc::diff_bench(base, base + "x"), std::runtime_error);
}

TEST(BenchDiff, BoundGatesTheFreshValueWithRatesUnchanged) {
  const std::string base =
      bench_file({rate0(1e6), rate64(1.1e6), speedup64(1.1)});
  EXPECT_FALSE(cc::diff_bench(base, base).regressed);

  // Same rates, so the relative gate is silent (-14% on the speedup), but
  // batch 64 no longer beats inline ingest: the bound is an absolute claim,
  // and --threshold does not widen it.
  const std::string lost =
      bench_file({rate0(1e6), rate64(1.1e6), speedup64(0.95)});
  for (const double threshold : {0.25, 0.9}) {
    const cc::BenchDiff d = cc::diff_bench(base, lost, threshold);
    EXPECT_TRUE(d.regressed) << d.verdict;
    EXPECT_TRUE(d.points[0].failure.empty());
    EXPECT_TRUE(d.points[1].failure.empty());
    EXPECT_NE(d.points[2].failure.find("bound"), std::string::npos)
        << d.points[2].failure;
  }
  // The baseline's bound governs: a fresh file cannot drop or lower it.
  EXPECT_TRUE(cc::diff_bench(base, bench_file({rate0(1e6), rate64(1.1e6),
                                               speedup64(0.95, "")}))
                  .regressed);
  EXPECT_TRUE(
      cc::diff_bench(base, bench_file({rate0(1e6), rate64(1.1e6),
                                       speedup64(0.95, R"(, "bound": 0.5)")}))
          .regressed);
  // A value exactly at the bound passes.
  EXPECT_FALSE(
      cc::diff_bench(base, bench_file({rate0(1e6), rate64(1.1e6),
                                       speedup64(1.0)}))
          .regressed);
}

TEST(BenchDiff, MissingPointRegressesWithoutAnyFlag) {
  const std::string base =
      bench_file({rate0(1e6), rate64(1.4e6), speedup64(1.4)});
  const cc::BenchDiff no_speedup =
      cc::diff_bench(base, bench_file({rate0(1e6), rate64(1.4e6)}));
  EXPECT_TRUE(no_speedup.regressed);
  ASSERT_EQ(no_speedup.points.size(), 3u);
  EXPECT_FALSE(no_speedup.points[2].fresh.has_value());
  EXPECT_NE(no_speedup.points[2].failure.find("missing"), std::string::npos);

  // A sweep that dropped batch 64 but gained batch 128 cannot pass by
  // omission; points only the fresh run has are not judged.
  const cc::BenchDiff no_64 = cc::diff_bench(
      base,
      bench_file({rate0(1e6),
                  bench_point("batch_128.events_per_sec", "events/s", 1.5e6),
                  speedup64(1.4)}));
  EXPECT_TRUE(no_64.regressed);
  EXPECT_NE(no_64.verdict.find("batch_64.events_per_sec missing"),
            std::string::npos)
      << no_64.verdict;
  EXPECT_FALSE(
      cc::diff_bench(base, bench_file({rate0(1e6), rate64(1.4e6),
                                       speedup64(1.4),
                                       bench_point("extra", "x", 1)}))
          .regressed);
}

TEST(BenchDiff, RefusesAcrossBenchesAndProvenance) {
  const std::string base =
      bench_file({rate0(1e6), rate64(1.4e6), speedup64(1.4)});
  // The same points under another bench name.
  EXPECT_NE(refusal(base, bench_file({rate0(1e6), rate64(1.4e6),
                                      speedup64(1.4)},
                                     kIngestProvenance, "serve_durability"))
                .find("cannot compare"),
            std::string::npos);
  // Every provenance value takes part, and so does the key set.
  const char* const others[] = {
      R"({"scale": "simdev", "threads": 8, "simd": "avx2", )"
      R"("events": 2153752})",
      R"({"scale": "simsmall", "threads": 4, "simd": "avx2", )"
      R"("events": 2153752})",
      R"({"scale": "simsmall", "threads": 8, "simd": "scalar", )"
      R"("events": 2153752})",
      R"({"scale": "simsmall", "threads": 8, "simd": "avx2", )"
      R"("events": 450020})",
      R"({"scale": "simsmall", "threads": 8, "simd": "avx2"})",
  };
  for (const char* provenance : others) {
    const std::string fresh =
        bench_file({rate0(1e6), rate64(1.4e6), speedup64(1.4)}, provenance);
    EXPECT_NE(refusal(base, fresh).find("cannot compare"), std::string::npos)
        << provenance;
  }
  // A shared point whose unit changed is not the same quantity.
  EXPECT_NE(refusal(base, bench_file({rate0(1e6),
                                      bench_point("batch_64.events_per_sec",
                                                  "events/ms", 1.4e3),
                                      speedup64(1.4)}))
                .find("cannot compare"),
            std::string::npos);
}

TEST(BenchDiff, WriterOutputAndCommittedBaselinesReadBack) {
  namespace cb = commscope::bench;
  const std::string path = (std::filesystem::temp_directory_path() /
                            ("commscope_bench_" +
                             std::to_string(::getpid()) + ".json"))
                               .string();
  ASSERT_EQ(::setenv("COMMSCOPE_BENCH_OUT", path.c_str(), 1), 0);
  cb::BenchJson json("unit_bench");
  json.provenance("scale", "simdev");
  json.provenance("events", std::uint64_t{123456789});
  json.point("a.rate", "events/s", 4.89462e+07, cb::Better::kHigher);
  json.point("b.ms", "ms", 2.5, cb::Better::kLower, 4.0);
  json.write("unused.json");
  ::unsetenv("COMMSCOPE_BENCH_OUT");
  std::ifstream in(path);
  std::stringstream written;
  written << in.rdbuf();
  std::remove(path.c_str());
  const cc::BenchDiff self = cc::diff_bench(written.str(), written.str());
  EXPECT_FALSE(self.regressed) << self.verdict;
  ASSERT_EQ(self.points.size(), 2u);
  EXPECT_DOUBLE_EQ(self.points[0].base, 4.89462e+07);
  EXPECT_EQ(self.points[1].unit, "ms");

  // The committed baselines are in the schema and only compare with
  // themselves.
  const auto slurp = [](const std::string& name) {
    std::ifstream f(std::string(COMMSCOPE_BENCH_DIR) + "/" + name);
    std::stringstream ss;
    ss << f.rdbuf();
    return ss.str();
  };
  const std::string ingest = slurp("BENCH_ingest.json");
  const std::string serve = slurp("BENCH_serve.json");
  EXPECT_EQ(cc::diff_bench(ingest, ingest).points.size(), 8u);
  EXPECT_EQ(cc::diff_bench(serve, serve).points.size(), 4u);
  EXPECT_FALSE(cc::diff_bench(serve, serve).regressed);
  EXPECT_NE(refusal(serve, ingest).find("cannot compare"), std::string::npos);
  EXPECT_NE(refusal(ingest, serve).find("cannot compare"), std::string::npos);
}

// --- report renderers (unconditional) --------------------------------------

TEST(TimelineReport, RenderersEmitTheirMarkers) {
  cc::ReportModel model;
  model.title = "unit";
  model.timeline = make_timeline();

  std::ostringstream text;
  cc::render_text(text, model);
  EXPECT_NE(text.str().find("== unit =="), std::string::npos);
  EXPECT_NE(text.str().find("epoch"), std::string::npos);

  std::ostringstream json;
  cc::render_json(json, model);
  EXPECT_EQ(json.str().rfind("{\"title\":\"unit\"", 0), 0u);
  EXPECT_NE(json.str().find("\"epochs\":["), std::string::npos);

  std::ostringstream html;
  cc::render_html(html, model);
  EXPECT_EQ(html.str().rfind("<!doctype html>", 0), 0u);
  EXPECT_NE(html.str().find("</html>"), std::string::npos);
  // The embedded JSON must not be able to close its own <script> tag.
  EXPECT_EQ(html.str().find("</script>\""), std::string::npos);
}

TEST(TimelineReport, EmptyTimelineRendersHint) {
  cc::ReportModel model;
  model.title = "empty";
  model.timeline.threads = 2;
  std::ostringstream text;
  cc::render_text(text, model);
  EXPECT_NE(text.str().find("no epochs recorded"), std::string::npos);
}

// --- live recorder ----------------------------------------------------------

TEST(FlightRecorder, DisabledRecorderDoesNothing) {
  cc::FlightRecorder r(opts(4, 0));
  EXPECT_FALSE(r.enabled());
  for (int i = 0; i < 100; ++i) r.count_access();
  r.add(0, 1, 8, ci::kNoLoop);
  r.flush(cc::EpochSeal::kFinalize);
  EXPECT_EQ(r.epochs_sealed(), 0u);
  EXPECT_TRUE(r.timeline().epochs.empty());
}

TEST(FlightRecorder, AccessTriggerSealsEveryN) {
  cc::FlightRecorder r(opts(4, 10));
  ASSERT_TRUE(r.enabled());
  for (int i = 0; i < 35; ++i) {
    r.add(0, 1, 8, ci::kNoLoop);
    r.count_access();
  }
  EXPECT_EQ(r.epochs_sealed(), 3u);
  r.flush(cc::EpochSeal::kFinalize);  // the 5-access remainder
  const cc::EpochTimeline t = r.timeline();
  ASSERT_EQ(t.epochs.size(), 4u);
  EXPECT_EQ(t.epochs[0].last_access - t.epochs[0].first_access, 10u);
  EXPECT_EQ(t.epochs[3].last_access, 35u);
  EXPECT_EQ(t.epochs[3].reason, cc::EpochSeal::kFinalize);
  EXPECT_EQ(t.total().at(0, 1), 35u * 8u);
}

TEST(FlightRecorder, BatchTriggerSeals) {
  cc::FlightRecorderOptions o;
  o.threads = 2;
  o.every_batches = 2;
  cc::FlightRecorder r(o);
  ASSERT_TRUE(r.enabled());
  r.add(0, 1, 4, ci::kNoLoop);
  for (int i = 0; i < 5; ++i) r.count_batch();
  EXPECT_EQ(r.epochs_sealed(), 2u);
  const cc::EpochTimeline t = r.timeline();
  ASSERT_FALSE(t.epochs.empty());
  EXPECT_EQ(t.epochs[0].reason, cc::EpochSeal::kBatches);
}

TEST(FlightRecorder, RingOverwritesOldestAndCounts) {
  cc::FlightRecorder r(opts(2, 1, /*ring=*/4));
  for (int i = 0; i < 10; ++i) {
    r.add(0, 1, 8, ci::kNoLoop);
    r.count_access();
  }
  const cc::EpochTimeline t = r.timeline();
  EXPECT_EQ(t.sealed, 10u);
  EXPECT_EQ(t.dropped, 6u);
  ASSERT_EQ(t.epochs.size(), 4u);
  // sealed == dropped + surviving: the honesty contract.
  EXPECT_EQ(t.sealed, t.dropped + t.epochs.size());
  // Newest history survives, oldest first.
  EXPECT_EQ(t.epochs[0].index, 6u);
  EXPECT_EQ(t.epochs[3].index, 9u);
}

TEST(FlightRecorder, EmptyFlushIsSkipped) {
  // every_accesses = 16 keeps the coalescing stride at 1, so a single
  // count_access() publishes immediately and makes the window non-empty.
  cc::FlightRecorder r(opts(2, 16));
  r.flush(cc::EpochSeal::kCheckpoint);
  r.flush(cc::EpochSeal::kCheckpoint);
  EXPECT_EQ(r.epochs_sealed(), 0u);  // no empty epoch per checkpoint
  r.count_access();
  r.flush(cc::EpochSeal::kCheckpoint);
  EXPECT_EQ(r.epochs_sealed(), 1u);
}

TEST(FlightRecorder, CoalescedCountsFoldIntoNextWindow) {
  // Coarse granularity -> stride > 1: events below the stride stay pending
  // in the thread-local slot and are invisible to flush (documented
  // contract — matrix deltas flow through add(), never through the
  // counter), then surface once the stride is crossed.
  cc::FlightRecorder r(opts(2, 1000));  // stride = 1000 / 16 = 62
  r.count_access();
  r.flush(cc::EpochSeal::kCheckpoint);
  EXPECT_EQ(r.epochs_sealed(), 0u);  // still locally pending
  for (int i = 0; i < 64; ++i) r.count_access();  // crosses the stride
  r.flush(cc::EpochSeal::kCheckpoint);
  EXPECT_EQ(r.epochs_sealed(), 1u);
  const cc::EpochTimeline t = r.timeline();
  ASSERT_EQ(t.epochs.size(), 1u);
  EXPECT_EQ(t.epochs[0].last_access, 62u);  // one published batch
}

TEST(FlightRecorder, ReplayModeStampsReplaySeals) {
  cc::FlightRecorderOptions o = opts(2, 2);
  o.replay = true;
  cc::FlightRecorder r(o);
  for (int i = 0; i < 4; ++i) {
    r.add(0, 1, 8, ci::kNoLoop);
    r.count_access();
  }
  const cc::EpochTimeline t = r.timeline();
  ASSERT_EQ(t.epochs.size(), 2u);
  EXPECT_EQ(t.epochs[0].reason, cc::EpochSeal::kReplay);
}

TEST(FlightRecorder, SparseDeltasSumToAccumulatedMatrix) {
  cc::FlightRecorder r(opts(4, 7));
  cc::Matrix want(4);
  std::uint64_t x = 88172645463325252ull;  // xorshift64
  for (int i = 0; i < 200; ++i) {
    x ^= x << 13; x ^= x >> 7; x ^= x << 17;
    const int p = static_cast<int>(x % 4);
    const int c = static_cast<int>((x >> 8) % 4);
    const std::uint64_t bytes = 1 + (x >> 16) % 64;
    r.add(p, c, bytes, ci::kNoLoop);
    want.at(p, c) += bytes;
    r.count_access();
  }
  r.flush(cc::EpochSeal::kFinalize);
  const cc::EpochTimeline t = r.timeline();
  EXPECT_EQ(t.dropped, 0u);
  EXPECT_TRUE(t.total() == want) << "sparse deltas diverged from dense sum";
}

TEST(FlightRecorder, MemoryTrackerChargedAndReleased) {
  commscope::support::MemoryTracker tracker;
  {
    cc::FlightRecorder r(opts(8, 100), &tracker);
    EXPECT_GT(tracker.current(), 0u);
  }
  EXPECT_EQ(tracker.current(), 0u);
}

// --- bytes trigger (phase windows) ------------------------------------------

TEST(FlightRecorder, BytesTriggerSealsOnTheCrossingDependency) {
  cc::FlightRecorder r(bytes_opts(4, 100));
  ASSERT_TRUE(r.enabled());
  r.add(0, 1, 60, ci::kNoLoop);
  EXPECT_EQ(r.epochs_sealed(), 0u);
  r.add(2, 3, 40, ci::kNoLoop);  // fills the window exactly
  ASSERT_EQ(r.epochs_sealed(), 1u);
  r.add(0, 1, 99, ci::kNoLoop);  // one byte short of the next seal
  EXPECT_EQ(r.epochs_sealed(), 1u);
  r.add(0, 1, 5, ci::kNoLoop);   // overshoot seals too, whole dependency in
  ASSERT_EQ(r.epochs_sealed(), 2u);
  const cc::EpochTimeline t = r.timeline();
  ASSERT_EQ(t.epochs.size(), 2u);
  EXPECT_EQ(t.epochs[0].reason, cc::EpochSeal::kBytes);
  EXPECT_EQ(t.epochs[0].bytes, 100u);
  EXPECT_EQ(t.epochs[0].dependencies, 2u);
  EXPECT_EQ(t.epochs[0].dense(4).at(0, 1), 60u);
  EXPECT_EQ(t.epochs[0].dense(4).at(2, 3), 40u);
  EXPECT_EQ(t.epochs[1].bytes, 104u);
  EXPECT_EQ(t.windows().size(), 2u);
  EXPECT_TRUE(t.windows()[1] == t.epochs[1].dense(4));
}

TEST(FlightRecorder, BytesTriggerRunsAlongsideAccessTrigger) {
  cc::FlightRecorderOptions o = opts(2, 10);  // stride 1: exact counts
  o.every_bytes = 64;
  cc::FlightRecorder r(o);
  cc::Matrix want(2);
  for (int i = 0; i < 20; ++i) r.count_access();  // two access seals
  for (int i = 0; i < 8; ++i) {
    r.add(0, 1, 16, ci::kNoLoop);  // two bytes seals
    want.at(0, 1) += 16;
  }
  r.count_access();
  r.flush(cc::EpochSeal::kFinalize);
  const cc::EpochTimeline t = r.timeline();
  ASSERT_EQ(t.epochs.size(), 5u);
  EXPECT_EQ(t.epochs[0].reason, cc::EpochSeal::kAccesses);
  EXPECT_EQ(t.epochs[1].reason, cc::EpochSeal::kAccesses);
  EXPECT_EQ(t.epochs[2].reason, cc::EpochSeal::kBytes);
  EXPECT_EQ(t.epochs[3].reason, cc::EpochSeal::kBytes);
  EXPECT_EQ(t.epochs[4].reason, cc::EpochSeal::kFinalize);
  EXPECT_EQ(t.epochs[2].bytes, 64u);
  // The bytes seals cut no accesses; the access spans still tile the run.
  EXPECT_EQ(t.epochs[2].last_access, t.epochs[2].first_access);
  EXPECT_EQ(t.epochs[4].last_access, 21u);
  EXPECT_TRUE(t.total() == want);
}

TEST(FlightRecorder, FlushSealsPartialBytesWindowOnce) {
  cc::FlightRecorder r(bytes_opts(4, 1000));
  r.add(1, 2, 10, ci::kNoLoop);
  r.flush(cc::EpochSeal::kFinalize);
  EXPECT_EQ(r.epochs_sealed(), 1u);
  r.flush(cc::EpochSeal::kFinalize);  // nothing new arrived: no empty epoch
  EXPECT_EQ(r.epochs_sealed(), 1u);
  const cc::EpochTimeline t = r.timeline();
  ASSERT_EQ(t.epochs.size(), 1u);
  EXPECT_EQ(t.epochs[0].reason, cc::EpochSeal::kFinalize);
  EXPECT_EQ(t.epochs[0].bytes, 10u);
}
