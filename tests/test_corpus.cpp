// Corpus-driven robustness harness for the two design readers: the RTL
// parser (tests/corpus/rtl, *.rtl) and the netlist reader
// (tests/corpus/rtn, *.rtn — the format every `-o` writes).
//
// Each directory holds two file families: ok_* must parse into a valid
// netlist, bad_* must be rejected with a structured OpisoError
// diagnostic that names the offending input line — never a crash, an
// abort, a raw std:: exception or an internal error. On top of the
// fixed corpus, a deterministic byte-mutation fuzzer (fixed xorshift
// seed, so every run and every CI leg sees the same inputs) hammers
// each reader with corrupted variants of each corpus file; any outcome
// other than "parsed" or "threw OpisoError" fails the suite. The RTL
// corpus also feeds the optional libFuzzer target (fuzz_rtl_parser) as
// its seed inputs.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "frontend/rtl_parser.hpp"
#include "netlist/text_io.hpp"
#include "obs/json.hpp"
#include "util/error.hpp"

namespace opiso {
namespace {

namespace fs = std::filesystem;

/// One reader and its corpus: files `<ext>/<family>*.<ext>`, read from
/// a path the way the CLI reads them, or from text.
struct Format {
  std::string ext;
  Netlist (*load)(const std::string& path);
  Netlist (*parse)(const std::string& text);
};

const Format kRtl{"rtl", [](const std::string& path) { return parse_rtl_file(path); },
                  [](const std::string& text) { return parse_rtl(text); }};
const Format kRtn{"rtn", [](const std::string& path) { return load_netlist(path); },
                  [](const std::string& text) { return netlist_from_string(text); }};

fs::path corpus_dir(const Format& f) { return fs::path(OPISO_CORPUS_DIR) / f.ext; }

std::vector<fs::path> corpus_files(const Format& f, const std::string& prefix) {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(corpus_dir(f))) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) == 0 && entry.path().extension() == "." + f.ext) {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string slurp(const fs::path& path) {
  std::ifstream is(path);
  std::ostringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

TEST(Corpus, DirectoriesArePopulated) {
  // Guards against a silently empty glob (e.g. a moved corpus dir)
  // turning the whole suite into a no-op.
  EXPECT_GE(corpus_files(kRtl, "ok_").size(), 3u);
  EXPECT_GE(corpus_files(kRtl, "bad_").size(), 15u);
  EXPECT_GE(corpus_files(kRtn, "ok_").size(), 3u);
  EXPECT_GE(corpus_files(kRtn, "bad_").size(), 8u);
}

TEST(Corpus, OkFilesParseAndValidate) {
  for (const Format& f : {kRtl, kRtn}) {
    for (const fs::path& path : corpus_files(f, "ok_")) {
      SCOPED_TRACE(path.filename().string());
      Netlist nl;
      ASSERT_NO_THROW(nl = f.load(path.string()));
      EXPECT_NO_THROW(nl.validate());
      EXPECT_GE(nl.primary_outputs().size(), 1u);
    }
  }
}

TEST(Corpus, BadFilesYieldStructuredLineDiagnostics) {
  for (const Format& f : {kRtl, kRtn}) {
    for (const fs::path& path : corpus_files(f, "bad_")) {
      SCOPED_TRACE(path.filename().string());
      try {
        (void)f.load(path.string());
        ADD_FAILURE() << path << " parsed but must be rejected";
      } catch (const OpisoError& e) {
        // Structured: a stable code, a message, and the offending line.
        EXPECT_STRNE(e.code_name(), "");
        EXPECT_NE(e.code(), ErrCode::Internal)
            << "malformed input must not surface as an internal error";
        EXPECT_FALSE(std::string(e.what()).empty());
        EXPECT_GT(e.input_line(), 0) << "diagnostic lost the input line";
        EXPECT_NE(std::string(e.what()).find(f.ext + " line"), std::string::npos);
        // The JSON rendering must itself be valid JSON carrying the code.
        const obs::JsonValue j = obs::JsonValue::parse(e.json());
        EXPECT_EQ(j.at("error").at("code").as_string(), e.code_name());
        EXPECT_EQ(j.at("error").at("input_line").as_number(),
                  static_cast<double>(e.input_line()));
      }
      // Anything else (std::bad_alloc, std::out_of_range, a signal)
      // escapes and fails the test — exactly the point.
    }
  }
}

TEST(Corpus, ExpectedCodesForKnownFamilies) {
  const struct {
    const Format& format;
    const char* file;
    ErrCode code;
  } kCases[] = {
      {kRtl, "bad_dup_wire.rtl", ErrCode::ParseDuplicate},
      {kRtl, "bad_dup_reg.rtl", ErrCode::ParseDuplicate},
      {kRtl, "bad_width_zero.rtl", ErrCode::ParseWidth},
      {kRtl, "bad_width_oversized.rtl", ErrCode::ParseWidth},
      {kRtl, "bad_width_overflow.rtl", ErrCode::ParseWidth},
      {kRtl, "bad_dangling_ref.rtl", ErrCode::ParseUnknownRef},
      {kRtl, "bad_number_literal.rtl", ErrCode::ParseNumber},
      {kRtl, "bad_number_overflow.rtl", ErrCode::ParseNumber},
      {kRtl, "bad_shift_overflow.rtl", ErrCode::ParseNumber},
      {kRtl, "bad_deep_nesting.rtl", ErrCode::ParseDepth},
      {kRtl, "bad_const_too_wide.rtl", ErrCode::ParseNumber},
      {kRtl, "bad_literal_too_wide.rtl", ErrCode::ParseNumber},
      {kRtl, "bad_mux_select_width.rtl", ErrCode::ParseWidth},
      {kRtl, "bad_dup_output.rtl", ErrCode::ParseDuplicate},
      {kRtn, "bad_param_alpha.rtn", ErrCode::ParseNumber},
      {kRtn, "bad_param_empty.rtn", ErrCode::ParseNumber},
      {kRtn, "bad_param_overflow.rtn", ErrCode::ParseNumber},
      {kRtn, "bad_param_negative.rtn", ErrCode::ParseNumber},
      {kRtn, "bad_param_suffix.rtn", ErrCode::ParseNumber},
      {kRtn, "bad_const_too_wide.rtn", ErrCode::ParseNumber},
      {kRtn, "bad_net_width_zero.rtn", ErrCode::ParseWidth},
      {kRtn, "bad_net_trailing.rtn", ErrCode::ParseSyntax},
      {kRtn, "bad_param_on_add.rtn", ErrCode::ParseSyntax},
      {kRtn, "bad_shift_amount.rtn", ErrCode::ParseNumber},
      {kRtn, "bad_dup_net.rtn", ErrCode::ParseDuplicate},
      {kRtn, "bad_dup_cell.rtn", ErrCode::ParseDuplicate},
      {kRtn, "bad_arity.rtn", ErrCode::ParseSyntax},
      {kRtn, "bad_two_drivers.rtn", ErrCode::ParseDuplicate},
      {kRtn, "bad_reg_en_width.rtn", ErrCode::ParseWidth},
      {kRtn, "bad_output_width.rtn", ErrCode::ParseWidth},
      {kRtn, "bad_output_cell_net.rtn", ErrCode::ParseSyntax},
  };
  for (const auto& c : kCases) {
    SCOPED_TRACE(c.file);
    try {
      (void)c.format.load((corpus_dir(c.format) / c.file).string());
      ADD_FAILURE() << c.file << " parsed but must be rejected";
    } catch (const OpisoError& e) {
      EXPECT_EQ(e.code(), c.code) << "got " << e.code_name() << ": " << e.what();
    }
  }
}

TEST(Corpus, MissingFileIsAnIoError) {
  for (const Format& f : {kRtl, kRtn}) {
    EXPECT_THROW((void)f.load((corpus_dir(f) / ("does_not_exist." + f.ext)).string()), IoError);
  }
}

// ------------------------------------------------------------- fuzzing

struct XorShift64 {
  std::uint64_t state;
  std::uint64_t next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
};

// Byte-level corruption: flips, ASCII splices, truncation, duplication.
// Deliberately text-shaped (printable splice bytes) so mutants stay in
// the lexer/elaborator's interesting region instead of dying uniformly
// in the first token.
std::string mutate(std::string text, XorShift64& rng) {
  if (text.empty()) text = " ";
  const unsigned ops = 1 + static_cast<unsigned>(rng.next() % 4);
  for (unsigned op = 0; op < ops; ++op) {
    switch (rng.next() % 5) {
      case 0:  // flip a byte
        text[rng.next() % text.size()] ^= static_cast<char>(1u << (rng.next() % 8));
        break;
      case 1:  // overwrite with a printable byte
        text[rng.next() % text.size()] = static_cast<char>(' ' + rng.next() % 95);
        break;
      case 2:  // truncate
        text.resize(rng.next() % (text.size() + 1));
        if (text.empty()) text = "(";
        break;
      case 3: {  // duplicate a slice (breeds duplicate definitions)
        const std::size_t from = rng.next() % text.size();
        const std::size_t len = rng.next() % std::min<std::size_t>(text.size() - from, 64) ;
        text.insert(rng.next() % text.size(), text.substr(from, len));
        break;
      }
      case 4: {  // splice structural noise
        static const char* kNoise[] = {":", "?", "(", "))", "<<", "0x", ":0", ":99",
                                       "when", "reg", "wire q = q", "\n"};
        text.insert(rng.next() % text.size(), kNoise[rng.next() % 12]);
        break;
      }
    }
  }
  return text;
}

/// Feeds kRoundsPerFile mutants of every corpus file of `f` to its
/// reader; counts {parsed, rejected} and fails on anything but a
/// structured, non-internal OpisoError.
std::pair<std::size_t, std::size_t> fuzz(const Format& f, std::uint64_t seed) {
  constexpr int kRoundsPerFile = 150;  // fixed workload: time-boxed in CI
  XorShift64 rng{seed};                // fixed seed: identical on every run
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (const std::string prefix : {"ok_", "bad_"}) {
    for (const fs::path& path : corpus_files(f, prefix)) {
      const std::string original = slurp(path);
      for (int round = 0; round < kRoundsPerFile; ++round) {
        const std::string mutant = mutate(original, rng);
        try {
          (void)f.parse(mutant);
          ++parsed;
        } catch (const OpisoError& e) {
          ++rejected;
          EXPECT_NE(e.code(), ErrCode::Internal)
              << path.filename() << " round " << round << ": " << e.what()
              << "\n--- mutant ---\n"
              << mutant;
        } catch (const std::exception& e) {
          ADD_FAILURE() << path.filename() << " round " << round
                        << ": leaked a non-OpisoError exception: " << e.what()
                        << "\n--- mutant ---\n"
                        << mutant;
        }
      }
    }
  }
  return {parsed, rejected};
}

TEST(Corpus, DeterministicMutationFuzzNeverCrashes) {
  for (const auto& [format, seed] : {std::pair{kRtl, 0x0015CA1EDB00F5ull},
                                     std::pair{kRtn, 0x0015CA1EDB00F6ull}}) {
    SCOPED_TRACE(format.ext);
    const auto [parsed, rejected] = fuzz(format, seed);
    // The mutator must actually exercise both outcomes, otherwise it is
    // either too tame or reducing everything to the first-token error.
    EXPECT_GT(parsed, 0u);
    EXPECT_GT(rejected, 0u);
  }
}

}  // namespace
}  // namespace opiso
