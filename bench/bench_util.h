/**
 * @file
 * Shared helpers for the reproduction benches: paper-style table
 * printing with side-by-side paper-reported and measured values, wall
 * timing, and machine-readable BENCH_*.json result files that track the
 * performance trajectory across PRs.
 */

#ifndef AQFPSC_BENCH_BENCH_UTIL_H
#define AQFPSC_BENCH_BENCH_UTIL_H

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/hardware_report.h"
#include "core/sc_engine.h"

// Build provenance macros, normally injected by CMake (see
// aqfpsc_bench_info in CMakeLists.txt); the fallbacks keep out-of-tree
// compilation working.
#ifndef AQFPSC_GIT_SHA
#define AQFPSC_GIT_SHA "unknown"
#endif
#ifndef AQFPSC_COMPILER
#define AQFPSC_COMPILER "unknown"
#endif
#ifndef AQFPSC_CXX_FLAGS
#define AQFPSC_CXX_FLAGS ""
#endif

namespace aqfpsc::bench {

/** Print a centred banner for one experiment. */
inline void
banner(const std::string &title)
{
    std::printf("\n=============================================================="
                "==========\n");
    std::printf("%s\n", title.c_str());
    std::printf("================================================================"
                "========\n");
}

/** Print a table header row. */
inline void
header(const std::vector<std::string> &cols)
{
    for (const auto &c : cols)
        std::printf("%14s", c.c_str());
    std::printf("\n");
    for (std::size_t i = 0; i < cols.size(); ++i)
        std::printf("%14s", "------------");
    std::printf("\n");
}

/** Fixed-point cell. */
inline std::string
cell(double v, int prec = 4)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
    return buf;
}

/** Scientific-notation cell. */
inline std::string
sci(double v, int prec = 3)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.*e", prec, v);
    return buf;
}

/** Print one row of string cells. */
inline void
row(const std::vector<std::string> &cols)
{
    for (const auto &c : cols)
        std::printf("%14s", c.c_str());
    std::printf("\n");
}

/** Wall-clock stopwatch. */
class WallTimer
{
  public:
    WallTimer() : start_(std::chrono::steady_clock::now()) {}

    /** Seconds elapsed since construction (or the last reset()). */
    double
    seconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

    void reset() { start_ = std::chrono::steady_clock::now(); }

  private:
    std::chrono::steady_clock::time_point start_;
};

/**
 * Minimal JSON value builder for bench result files.
 *
 * Supports objects (insertion-ordered), arrays, strings, numbers and
 * booleans — enough to serialize {name, config, wall time, accuracy}
 * records without external dependencies.
 */
class Json
{
  public:
    static Json
    object()
    {
        Json j;
        j.kind_ = Kind::Object;
        return j;
    }

    static Json
    array()
    {
        Json j;
        j.kind_ = Kind::Array;
        return j;
    }

    Json() = default;
    Json(const char *s) : kind_(Kind::String), str_(s) {}
    Json(std::string s) : kind_(Kind::String), str_(std::move(s)) {}
    Json(double v) : kind_(Kind::Number), num_(v) {}
    Json(int v) : kind_(Kind::Number), num_(v) {}
    Json(long long v) : kind_(Kind::Number), num_(static_cast<double>(v)) {}
    Json(std::size_t v) : kind_(Kind::Number), num_(static_cast<double>(v)) {}
    Json(bool v) : kind_(Kind::Bool), bool_(v) {}

    /** Object member set (insertion order preserved). */
    Json &
    set(const std::string &key, Json value)
    {
        members_.emplace_back(key,
                              std::make_shared<Json>(std::move(value)));
        return *this;
    }

    /** Array element append. */
    Json &
    push(Json value)
    {
        elements_.push_back(std::make_shared<Json>(std::move(value)));
        return *this;
    }

    /** Serialize with 2-space indentation. */
    std::string
    dump(int depth = 0) const
    {
        const std::string pad(static_cast<std::size_t>(depth) * 2, ' ');
        const std::string pad1(static_cast<std::size_t>(depth + 1) * 2,
                               ' ');
        switch (kind_) {
          case Kind::Null:
            return "null";
          case Kind::Bool:
            return bool_ ? "true" : "false";
          case Kind::Number: {
            char buf[40];
            std::snprintf(buf, sizeof(buf), "%.17g", num_);
            return buf;
          }
          case Kind::String:
            return quote(str_);
          case Kind::Object: {
            if (members_.empty())
                return "{}";
            std::string out = "{\n";
            for (std::size_t i = 0; i < members_.size(); ++i) {
                out += pad1 + quote(members_[i].first) + ": " +
                       members_[i].second->dump(depth + 1);
                out += i + 1 < members_.size() ? ",\n" : "\n";
            }
            return out + pad + "}";
          }
          case Kind::Array: {
            if (elements_.empty())
                return "[]";
            std::string out = "[\n";
            for (std::size_t i = 0; i < elements_.size(); ++i) {
                out += pad1 + elements_[i]->dump(depth + 1);
                out += i + 1 < elements_.size() ? ",\n" : "\n";
            }
            return out + pad + "]";
          }
        }
        return "null";
    }

  private:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Object,
        Array,
    };

    static std::string
    quote(const std::string &s)
    {
        std::string out = "\"";
        for (const char c : s) {
            switch (c) {
              case '"':
                out += "\\\"";
                break;
              case '\\':
                out += "\\\\";
                break;
              case '\n':
                out += "\\n";
                break;
              case '\t':
                out += "\\t";
                break;
              default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
            }
        }
        return out + "\"";
    }

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    std::vector<std::pair<std::string, std::shared_ptr<Json>>> members_;
    std::vector<std::shared_ptr<Json>> elements_;
};

/**
 * Self-describing engine stamp for bench JSON records: the backend
 * registry name plus the stream length and worker count, so
 * BENCH_*.json trajectories stay comparable across PRs without reading
 * the bench source of that revision.
 */
inline Json
engineJson(const core::EngineOptions &cfg)
{
    Json j = Json::object()
                 .set("backend", cfg.backend)
                 .set("stream_len", cfg.streamLen)
                 .set("threads", cfg.threads);
    if (!cfg.stageStreamLens.empty()) {
        Json lens = Json::array();
        for (const std::size_t len : cfg.stageStreamLens)
            lens.push(len);
        j.set("stage_stream_lens", std::move(lens));
    }
    return j;
}

/**
 * Build/hardware provenance stamp: git SHA (of the configure, refreshed
 * by re-running CMake), compiler id+version, the compile flags of the
 * active configuration, and the machine's hardware thread count.  Makes
 * BENCH_*.json numbers from different PRs / machines comparable without
 * archaeology.
 */
inline Json
buildInfoJson()
{
    // The SIMD fields make committed reports comparable across hosts:
    // a number recorded under "scalar" dispatch must not be read as a
    // regression against one recorded under "avx512".
    const core::HostSimdInfo simd = core::hostSimdInfo();
    return Json::object()
        .set("git_sha", AQFPSC_GIT_SHA)
        .set("compiler", AQFPSC_COMPILER)
        .set("cxx_flags", AQFPSC_CXX_FLAGS)
        .set("hardware_threads",
             static_cast<std::size_t>(std::thread::hardware_concurrency()))
        .set("simd_detected", simd.detected)
        .set("simd_level", simd.active)
        .set("kernel_variants", simd.variants);
}

/**
 * Write @p payload to BENCH_<name>.json in the working directory.  The
 * bench name and the build provenance stamp (buildInfoJson) are added
 * so aggregators can glob the files without parsing filenames and
 * compare numbers across PRs.  @return success.
 */
inline bool
writeBenchReport(const std::string &name, Json payload)
{
    Json wrapped = Json::object();
    wrapped.set("bench", name);
    wrapped.set("build", buildInfoJson());
    wrapped.set("results", std::move(payload));
    const std::string path = "BENCH_" + name + ".json";
    std::ofstream out(path);
    if (!out)
        return false;
    out << wrapped.dump() << "\n";
    out.flush();
    if (!out) {
        std::printf("[bench] ERROR: failed writing %s\n", path.c_str());
        return false;
    }
    std::printf("[bench] wrote %s\n", path.c_str());
    return true;
}

} // namespace aqfpsc::bench

#endif // AQFPSC_BENCH_BENCH_UTIL_H
