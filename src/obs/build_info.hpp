// rumor/obs: build provenance baked into every binary.
//
// Reports that gate perf trajectories are only attributable if they say
// what produced them: the git sha, the compiler, the build type, and the
// optimization flags. The values are compile-time constants (the sha and
// flags arrive as compile definitions on build_info.cpp, set by
// src/obs/CMakeLists.txt at configure time; the compiler identifies itself
// through predefined macros), so two reports from the same binary always
// carry byte-identical build_info — which is what keeps the CI byte-diff
// contracts (shard-merge vs plain, kill/resume vs plain) intact.
#pragma once

#include <string>

#include "json/json.hpp"

namespace rumor::obs {

struct BuildInfo {
  const char* git_sha;           // short sha at configure time, or "unknown"
  const char* compiler;          // "gcc" / "clang" / "unknown"
  const char* compiler_version;  // the compiler's own __VERSION__ string
  const char* build_type;        // CMAKE_BUILD_TYPE, or "unknown"
  const char* flags;             // the CXX flags the build used
};

/// The binary's build identity; every field non-null.
[[nodiscard]] const BuildInfo& build_info() noexcept;

/// build_info() as the JSON object every report embeds under "build_info"
/// and the trace file under otherData: git sha, compiler + version, build
/// type, flags. The one rendering of BuildInfo; the graph store's
/// provenance takes its fields from it.
[[nodiscard]] json::Json build_info_json();

/// One human line for --version: "rumor_bench <sha> (<compiler>
/// <version>, <build_type>)".
[[nodiscard]] std::string build_info_line(const std::string& program);

}  // namespace rumor::obs
