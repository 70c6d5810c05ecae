//===- tests/driver_test.cpp - Sweep spec + experiment runner tests ---------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
// The driver contract (docs/SWEEPS.md): spec violations surface as
// structured diagnostics (never asserts), expansion order is deterministic,
// the aggregate dra-sweep-v1 report is byte-identical for every worker
// count, and one failing job is isolated and reported while the rest of
// the sweep completes.
//
//===----------------------------------------------------------------------===//

#include "apps/Apps.h"
#include "driver/ExperimentRunner.h"
#include "driver/SweepSpec.h"
#include "obs/RunReport.h"
#include "support/FileIO.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <optional>
#include <stdexcept>

using namespace dra;

namespace {

struct SpecParse : public ::testing::Test {
  DiagnosticEngine DE;
  CollectingConsumer Diags;

  SpecParse() { DE.addConsumer(&Diags); }

  std::optional<SweepSpec> parse(const std::string &Json) {
    return SweepSpec::parse(Json, DE);
  }
};

TEST_F(SpecParse, SyntaxErrorIsDiagnosed) {
  EXPECT_FALSE(parse("{not json"));
  EXPECT_NE(Diags.findCheck("syntax"), nullptr);
  EXPECT_GE(DE.numErrors(), 1u);
}

TEST_F(SpecParse, TopLevelMustBeObject) {
  EXPECT_FALSE(parse("[1, 2]"));
  EXPECT_NE(Diags.findCheck("wrong-type"), nullptr);
}

TEST_F(SpecParse, UnknownKeyIsDiagnosed) {
  EXPECT_FALSE(parse(R"({"apps": ["AST"], "procss": [1]})"));
  EXPECT_NE(Diags.findCheck("unknown-key"), nullptr);
  // Every run uses the serial simulator; the retired shard count is no
  // longer a key.
  Diags.clear();
  EXPECT_FALSE(parse(R"({"apps": ["AST"], "sim_shards": 8})"));
  const Diagnostic *D = Diags.findCheck("unknown-key");
  ASSERT_NE(D, nullptr);
  EXPECT_NE(D->message().find("'sim_shards'"), std::string::npos);
}

TEST_F(SpecParse, UnknownSchemeAndAppAreDiagnosed) {
  EXPECT_FALSE(parse(R"({"apps": ["NotAnApp"], "schemes": ["Bogus"]})"));
  EXPECT_NE(Diags.findCheck("unknown-app"), nullptr);
  EXPECT_NE(Diags.findCheck("unknown-scheme"), nullptr);
  EXPECT_GE(DE.numErrors(), 2u);
}

TEST_F(SpecParse, WrongTypeAxesAreDiagnosed) {
  EXPECT_FALSE(parse(R"({"apps": ["AST"], "procs": "four"})"));
  EXPECT_NE(Diags.findCheck("wrong-type"), nullptr);
}

TEST_F(SpecParse, EmptyAxisIsDiagnosed) {
  EXPECT_FALSE(parse(R"({"apps": ["AST"], "procs": []})"));
  EXPECT_NE(Diags.findCheck("empty-axis"), nullptr);
}

TEST_F(SpecParse, OutOfRangeValuesAreDiagnosed) {
  EXPECT_FALSE(parse(R"({"apps": ["AST"], "stripe_factor": [65]})"));
  EXPECT_NE(Diags.findCheck("out-of-range"), nullptr);
}

TEST_F(SpecParse, NoProgramsIsDiagnosed) {
  EXPECT_FALSE(parse(R"({"procs": [1]})"));
  EXPECT_NE(Diags.findCheck("no-programs"), nullptr);
}

TEST_F(SpecParse, BadSchemaStringIsDiagnosed) {
  EXPECT_FALSE(parse(R"({"schema": "dra-sweep-spec-v2", "apps": ["AST"]})"));
  EXPECT_NE(Diags.findCheck("bad-schema"), nullptr);
}

TEST_F(SpecParse, MissingFileIsDiagnosedAtExpansion) {
  auto Spec = parse(R"({"files": ["/nonexistent/program.dra"]})");
  ASSERT_TRUE(Spec.has_value());
  EXPECT_FALSE(Spec->expand(DE).has_value());
  EXPECT_NE(Diags.findCheck("file-parse"), nullptr);
}

TEST_F(SpecParse, DefaultsFollowTable1) {
  auto Spec = parse(R"({"apps": ["AST"]})");
  ASSERT_TRUE(Spec.has_value());
  EXPECT_EQ(Spec->Schemes.size(), 7u); // default "all"
  EXPECT_EQ(Spec->Procs, std::vector<unsigned>{1});
  EXPECT_EQ(Spec->StripeFactors, std::vector<unsigned>{8});
  EXPECT_EQ(Spec->StripeUnitBytes, std::vector<uint64_t>{32 * 1024});
  EXPECT_EQ(Spec->CacheBlocks, std::vector<uint64_t>{0});
  EXPECT_DOUBLE_EQ(Spec->TpmBreakEvenS[0], DiskParams().TpmBreakEvenS);
  EXPECT_EQ(Spec->DrpmWindowRequests,
            std::vector<unsigned>{DiskParams().DrpmWindowRequests});
  EXPECT_EQ(Spec->Verify, VerifyLevel::Off);
  EXPECT_EQ(DE.numErrors(), 0u);
}

TEST_F(SpecParse, ExpansionIsDeterministicAndOrdered) {
  auto Spec = parse(R"({
    "apps": ["FFT", "AST"], "scale": 0.05,
    "schemes": ["TPM", "Base"], "procs": [2, 1]
  })");
  ASSERT_TRUE(Spec.has_value());
  EXPECT_EQ(Spec->numJobs(), 8u);
  auto Jobs = Spec->expand(DE);
  ASSERT_TRUE(Jobs.has_value());
  ASSERT_EQ(Jobs->size(), 8u);
  // Program-major, then scheme, then procs — exactly the listed order.
  EXPECT_EQ((*Jobs)[0].Point.App, "FFT");
  EXPECT_EQ((*Jobs)[0].Point.S, Scheme::Tpm);
  EXPECT_EQ((*Jobs)[0].Point.Procs, 2u);
  EXPECT_EQ((*Jobs)[1].Point.Procs, 1u);
  EXPECT_EQ((*Jobs)[2].Point.S, Scheme::Base);
  EXPECT_EQ((*Jobs)[4].Point.App, "AST");
  auto Again = Spec->expand(DE);
  ASSERT_TRUE(Again.has_value());
  for (size_t I = 0; I != Jobs->size(); ++I) {
    EXPECT_EQ((*Jobs)[I].Index, I);
    EXPECT_EQ((*Jobs)[I].Point.App, (*Again)[I].Point.App);
    EXPECT_EQ((*Jobs)[I].Point.S, (*Again)[I].Point.S);
    EXPECT_EQ((*Jobs)[I].Point.Procs, (*Again)[I].Point.Procs);
  }
}

/// The acceptance gate: --jobs 1 and --jobs 8 produce byte-identical
/// dra-sweep-v1 aggregates.
TEST(ExperimentRunner, AggregateIsByteIdenticalAcrossWorkerCounts) {
  DiagnosticEngine DE;
  auto Spec = SweepSpec::parse(R"({
    "apps": ["AST"], "scale": 0.05,
    "schemes": ["Base", "T-TPM-s"], "procs": [1, 2],
    "cache_blocks": [0, 64]
  })",
                               DE);
  ASSERT_TRUE(Spec.has_value());
  auto Jobs = Spec->expand(DE);
  ASSERT_TRUE(Jobs.has_value());
  ASSERT_EQ(Jobs->size(), 8u);

  SweepOptions Serial;
  Serial.Workers = 1;
  SweepOptions Wide;
  Wide.Workers = 8;
  std::string One =
      renderSweepJson(*Spec, ExperimentRunner(Serial).run(*Jobs));
  std::string Eight =
      renderSweepJson(*Spec, ExperimentRunner(Wide).run(*Jobs));
  EXPECT_EQ(One, Eight);
  EXPECT_NE(One.find("\"schema\":\"dra-sweep-v1\""), std::string::npos);
  EXPECT_NE(One.find("\"failed\":0"), std::string::npos);
}

TEST(ExperimentRunner, FailingJobIsIsolatedAndReported) {
  DiagnosticEngine DE;
  auto Spec = SweepSpec::parse(
      R"({"apps": ["AST"], "scale": 0.05, "schemes": ["Base"]})", DE);
  ASSERT_TRUE(Spec.has_value());
  auto Jobs = Spec->expand(DE);
  ASSERT_TRUE(Jobs.has_value());
  ASSERT_EQ(Jobs->size(), 1u);

  // Clone the good job around a deliberately failing one.
  SweepJob Bad = (*Jobs)[0];
  Bad.Build = []() -> Program {
    throw std::runtime_error("injected failure");
  };
  std::vector<SweepJob> Mixed{(*Jobs)[0], Bad, (*Jobs)[0]};
  for (size_t I = 0; I != Mixed.size(); ++I)
    Mixed[I].Index = I;

  SweepOptions Opts;
  Opts.Workers = 3;
  std::vector<JobOutcome> Out = ExperimentRunner(Opts).run(Mixed);
  ASSERT_EQ(Out.size(), 3u);
  EXPECT_TRUE(Out[0].Ok);
  EXPECT_FALSE(Out[1].Ok);
  EXPECT_EQ(Out[1].Error, "injected failure");
  EXPECT_TRUE(Out[2].Ok);
  // Healthy neighbours are unperturbed by the failure.
  EXPECT_DOUBLE_EQ(Out[0].Run.Sim.EnergyJ, Out[2].Run.Sim.EnergyJ);

  std::string Doc = renderSweepJson(*Spec, Out);
  EXPECT_NE(Doc.find("\"failed\":1"), std::string::npos);
  EXPECT_NE(Doc.find("\"status\":\"error\""), std::string::npos);
  EXPECT_NE(Doc.find("injected failure"), std::string::npos);
}

/// The serial reference of runAppMatrix: one Pipeline per app, running
/// every scheme on the calling thread.
static AppResults evaluate(const PipelineConfig &Config,
                           const std::vector<Scheme> &Schemes,
                           const AppUnderTest &App) {
  AppResults R;
  R.Name = App.Name;
  Program P = App.Build();
  Pipeline Pipe(P, Config);
  for (Scheme S : Schemes)
    R.Runs.push_back(Pipe.run(S));
  return R;
}

/// The parallel matrix path the figure benches use must agree with the
/// serial reference bit-for-bit.
TEST(ExperimentRunner, AppMatrixMatchesSerialEvaluate) {
  PipelineConfig Config = paperConfig(2);
  std::vector<Scheme> Schemes{Scheme::Base, Scheme::Tpm, Scheme::TDrpmM};
  std::vector<AppUnderTest> Apps = paperApps(0.05);
  Apps.resize(2); // AST + FFT keep the test fast.

  std::vector<AppResults> Serial;
  for (const AppUnderTest &App : Apps)
    Serial.push_back(evaluate(Config, Schemes, App));
  std::vector<AppResults> Parallel = runAppMatrix(Config, Schemes, Apps, 4);

  ASSERT_EQ(Serial.size(), Parallel.size());
  EXPECT_EQ(renderRunReportJson(Config, Serial, "test"),
            renderRunReportJson(Config, Parallel, "test"));
}

TEST(ExperimentRunner, PerJobTelemetryLandsInDistinctFiles) {
  namespace fs = std::filesystem;
  fs::path Dir =
      fs::temp_directory_path() / "dra-driver-test-telemetry";
  fs::remove_all(Dir);

  DiagnosticEngine DE;
  auto Spec = SweepSpec::parse(
      R"({"apps": ["AST"], "scale": 0.05, "schemes": ["Base", "TPM"]})", DE);
  ASSERT_TRUE(Spec.has_value());
  auto Jobs = Spec->expand(DE);
  ASSERT_TRUE(Jobs.has_value());

  SweepOptions Opts;
  Opts.Workers = 2;
  Opts.TelemetryDir = Dir.string();
  std::vector<JobOutcome> Out = ExperimentRunner(Opts).run(*Jobs);
  for (const JobOutcome &O : Out)
    EXPECT_TRUE(O.Ok) << O.Error;

  for (const char *Stem : {"job-00000", "job-00001"})
    for (const char *Ext : {".trace.json", ".metrics.json", ".report.json"})
      EXPECT_TRUE(fs::exists(Dir / (std::string(Stem) + Ext)))
          << Stem << Ext;
  fs::remove_all(Dir);
}

/// Per-job exports render inside the sweep's worker region, serially on
/// the job's worker, and do not depend on how many workers run.
TEST(ExperimentRunner, PerJobReportsAreByteIdenticalAcrossWorkerCounts) {
  namespace fs = std::filesystem;
  DiagnosticEngine DE;
  auto Spec = SweepSpec::parse(R"({
    "apps": ["AST"], "scale": 0.05,
    "schemes": ["Base", "TPM"], "procs": [1, 2]
  })",
                               DE);
  ASSERT_TRUE(Spec.has_value());
  auto Jobs = Spec->expand(DE);
  ASSERT_TRUE(Jobs.has_value());
  ASSERT_EQ(Jobs->size(), 4u);

  fs::path Root = fs::temp_directory_path() / "dra-driver-test-jobs";
  fs::remove_all(Root);
  for (unsigned Workers : {1u, 4u}) {
    SweepOptions Opts;
    Opts.Workers = Workers;
    Opts.TelemetryDir = (Root / std::to_string(Workers)).string();
    for (const JobOutcome &O : ExperimentRunner(Opts).run(*Jobs))
      EXPECT_TRUE(O.Ok) << O.Error;
  }
  for (size_t J = 0; J != Jobs->size(); ++J)
    for (const char *Ext : {".report.json", ".timeline.json"}) {
      std::string Name = "job-0000" + std::to_string(J) + Ext;
      std::optional<std::string> One = readFile((Root / "1" / Name).string());
      std::optional<std::string> Four = readFile((Root / "4" / Name).string());
      ASSERT_TRUE(One && Four) << Name;
      EXPECT_EQ(*One, *Four) << Name;
    }
  fs::remove_all(Root);
}

} // namespace
