#include "harness.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <system_error>

#include "micro.hpp"

namespace spam::bench {

namespace {

std::vector<report::Table>& collected() {
  static std::vector<report::Table> tables;
  return tables;
}

void json_escape(std::string& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void json_string_array(std::string& out, const std::vector<std::string>& a) {
  out += '[';
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (i != 0) out += ", ";
    out += '"';
    json_escape(out, a[i]);
    out += '"';
  }
  out += ']';
}

}  // namespace

HarnessOptions& options() {
  static HarnessOptions opts;
  return opts;
}

void harness_init(int argc, char** argv) {
  HarnessOptions& o = options();
  const auto usage = [&] {
    std::fprintf(stderr, "usage: %s [--jobs N] [--quick] [--out <path>]\n",
                 argv[0]);
    std::exit(2);
  };
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto value_of = [&](const char* flag) -> const char* {
      const std::size_t n = std::strlen(flag);
      if (std::strncmp(a, flag, n) != 0) return nullptr;
      if (a[n] == '=') return a + n + 1;
      if (a[n] != '\0') return nullptr;
      if (i + 1 == argc) usage();
      return argv[++i];
    };
    if (std::strcmp(a, "--quick") == 0) {
      o.quick = true;
    } else if (const char* v = value_of("--jobs")) {
      const char* end = v + std::strlen(v);
      const auto [p, ec] = std::from_chars(v, end, o.jobs);
      if (ec != std::errc{} || p != end || o.jobs < 0) usage();
    } else if (const char* v = value_of("--out")) {
      o.out = v;
    } else {
      usage();
    }
  }
}

void emit(const report::Table& t) {
  t.print();
  collected().push_back(t);
}

void emit(const report::PaperComparison& c) { emit(c.table()); }

int harness_finish() {
  const HarnessOptions& o = options();
  if (o.out.empty()) return 0;

  std::string j = "{\n";
  j += "  \"jobs\": " + std::to_string(driver::SweepRunner(o.jobs).jobs());
  j += ",\n  \"tables\": [";
  bool first_table = true;
  for (const report::Table& t : collected()) {
    j += first_table ? "\n" : ",\n";
    first_table = false;
    j += "    {\"title\": \"";
    json_escape(j, t.title());
    j += "\", \"header\": ";
    json_string_array(j, t.header());
    j += ", \"rows\": [";
    for (std::size_t r = 0; r < t.rows().size(); ++r) {
      if (r != 0) j += ", ";
      json_string_array(j, t.rows()[r]);
    }
    j += "]}";
  }
  j += "\n  ]\n}\n";

  std::FILE* f = std::fopen(o.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "harness: cannot write %s\n", o.out.c_str());
    return 1;
  }
  std::fwrite(j.data(), 1, j.size(), f);
  std::fclose(f);
  std::printf("\nwrote %s\n", o.out.c_str());
  return 0;
}

std::vector<double> fig3_sweep(const std::vector<std::size_t>& sizes,
                               int jobs) {
  std::vector<std::function<double()>> pts;
  pts.reserve(sizes.size() * kFig3Curves);
  for (std::size_t s : sizes) {  // kFig3Curves order
    pts.push_back([s] { return am_bandwidth_mbps(AmBwMode::kSyncStore, s); });
    pts.push_back([s] { return am_bandwidth_mbps(AmBwMode::kSyncGet, s); });
    pts.push_back([s] { return mpl_bandwidth_mbps(MplBwMode::kBlocking, s); });
    pts.push_back(
        [s] { return am_bandwidth_mbps(AmBwMode::kPipelinedAsyncStore, s); });
    pts.push_back(
        [s] { return am_bandwidth_mbps(AmBwMode::kPipelinedAsyncGet, s); });
    pts.push_back(
        [s] { return mpl_bandwidth_mbps(MplBwMode::kPipelined, s); });
  }
  return driver::SweepRunner(jobs).run(pts);
}

report::Table fig3_table(const std::vector<std::size_t>& sizes,
                         const std::vector<double>& mbps) {
  report::Table tab("Figure 3 — bandwidth of bulk transfers (MB/s)");
  tab.set_header({"bytes", "sync store", "sync get", "MPL blocking",
                  "async store", "async get", "MPL pipelined"});
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    std::vector<std::string> row{std::to_string(sizes[i])};
    for (std::size_t c = 0; c < kFig3Curves; ++c) {
      row.push_back(report::fmt(mbps[i * kFig3Curves + c]));
    }
    tab.add_row(row);
  }
  return tab;
}

}  // namespace spam::bench
