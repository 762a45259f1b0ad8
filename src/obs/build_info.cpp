#include "obs/build_info.hpp"

#ifndef RUMOR_GIT_SHA
#define RUMOR_GIT_SHA "unknown"
#endif
#ifndef RUMOR_BUILD_TYPE
#define RUMOR_BUILD_TYPE "unknown"
#endif
#ifndef RUMOR_CXX_FLAGS
#define RUMOR_CXX_FLAGS ""
#endif

namespace rumor::obs {

namespace {

constexpr const char* compiler_name() noexcept {
#if defined(__clang__)
  return "clang";
#elif defined(__GNUC__)
  return "gcc";
#else
  return "unknown";
#endif
}

constexpr const char* compiler_version() noexcept {
#if defined(__VERSION__)
  return __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

const BuildInfo& build_info() noexcept {
  static const BuildInfo info{RUMOR_GIT_SHA, compiler_name(), compiler_version(),
                              RUMOR_BUILD_TYPE, RUMOR_CXX_FLAGS};
  return info;
}

json::Json build_info_json() {
  const BuildInfo& bi = build_info();
  json::Json info = json::Json::object();
  info.set("git_sha", bi.git_sha);
  info.set("compiler", bi.compiler);
  info.set("compiler_version", bi.compiler_version);
  info.set("build_type", bi.build_type);
  info.set("flags", bi.flags);
  return info;
}

std::string build_info_line(const std::string& program) {
  const BuildInfo& bi = build_info();
  return program + " " + bi.git_sha + " (" + bi.compiler + " " + bi.compiler_version + ", " +
         bi.build_type + ")";
}

}  // namespace rumor::obs
