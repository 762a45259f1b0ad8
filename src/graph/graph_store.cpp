#include "graph/graph_store.hpp"

#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#define RUMOR_GRAPH_STORE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "json/json.hpp"
#include "obs/build_info.hpp"

namespace rumor::graph {

// The on-disk format is defined little-endian and this implementation
// writes/reads arrays directly; a big-endian port must add byte-swapping
// (docs/GRAPH_FORMAT.md, "Endianness").
static_assert(std::endian::native == std::endian::little,
              "graph_store.cpp reads/writes the packed CSR format via direct array I/O "
              "and therefore requires a little-endian host");
static_assert(sizeof(NodeId) == 4, "the packed format stores neighbors as u32 node ids");

namespace detail {
/// Private construction hook declared in graph.hpp: wires a Graph's CSR
/// pointers into a mapped store and exposes the contiguous neighbor array
/// for packing.
struct GraphAccess {
  static Graph make_mapped(std::shared_ptr<const void> mapping, const std::uint32_t* offsets32,
                           const std::uint64_t* offsets64, const NodeId* neighbors,
                           NodeId num_nodes, std::size_t num_arcs, std::string name) {
    return Graph(std::move(mapping), offsets32, offsets64, neighbors, num_nodes, num_arcs,
                 std::move(name));
  }
  static const NodeId* neighbors_data(const Graph& g) noexcept { return g.neighbors_; }
};
}  // namespace detail

namespace {

constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv1a64(const void* data, std::size_t len, std::uint64_t h) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

// Header field byte offsets; error messages cite these so a corrupted file
// can be inspected with any hex dumper.
constexpr std::size_t kOffMagic = 0;     // 8 bytes
constexpr std::size_t kOffVersion = 8;   // u32
constexpr std::size_t kOffFlags = 12;    // u32, bit0 = wide (64-bit) offsets
constexpr std::size_t kOffN = 16;        // u64 node count
constexpr std::size_t kOffArcs = 24;     // u64 arc count = 2m
constexpr std::size_t kOffChecksum = 32; // u64 FNV-1a over offsets||neighbors||name
constexpr std::size_t kOffNameLen = 40;  // u64
constexpr std::size_t kOffProvLen = 48;  // u64
constexpr std::uint32_t kFlagWideOffsets = 1u << 0;

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw std::runtime_error("graph_store: " + path + ": " + what);
}

void put_u32(std::uint8_t* p, std::uint32_t v) noexcept { std::memcpy(p, &v, sizeof v); }
void put_u64(std::uint8_t* p, std::uint64_t v) noexcept { std::memcpy(p, &v, sizeof v); }
std::uint32_t get_u32(const std::uint8_t* p) noexcept {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}
std::uint64_t get_u64(const std::uint8_t* p) noexcept {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Byte positions of every region, derived from a validated header.
struct Layout {
  bool wide = false;
  std::uint64_t n = 0;
  std::uint64_t arcs = 0;
  std::uint64_t name_len = 0;
  std::uint64_t prov_len = 0;

  [[nodiscard]] std::uint64_t offsets_bytes() const noexcept {
    return (n + 1) * (wide ? 8u : 4u);
  }
  [[nodiscard]] std::uint64_t neighbors_pos() const noexcept {
    return kGraphStoreHeaderBytes + offsets_bytes();
  }
  [[nodiscard]] std::uint64_t name_pos() const noexcept { return neighbors_pos() + arcs * 4; }
  [[nodiscard]] std::uint64_t prov_pos() const noexcept { return name_pos() + name_len; }
  [[nodiscard]] std::uint64_t total_bytes() const noexcept { return prov_pos() + prov_len; }
  /// Bytes the checksum covers: offsets || neighbors || name (provenance is
  /// excluded so repacking the same graph from a different build leaves the
  /// checksum — and thus campaign spec hashes — unchanged).
  [[nodiscard]] std::uint64_t checksummed_bytes() const noexcept {
    return name_pos() + name_len - kGraphStoreHeaderBytes;
  }
};

/// Validates a 64-byte header against the file size; fills `info` and
/// returns the layout. All error messages name the path and the byte offset
/// of the offending field.
Layout parse_header(const std::uint8_t* hdr, std::uint64_t file_size, const std::string& path,
                    GraphStoreInfo& info) {
  if (file_size < kGraphStoreHeaderBytes) {
    fail(path, "truncated header: file is " + std::to_string(file_size) + " bytes, need " +
                   std::to_string(kGraphStoreHeaderBytes) + " (at byte 0)");
  }
  if (std::memcmp(hdr + kOffMagic, kGraphStoreMagic, sizeof kGraphStoreMagic) != 0) {
    fail(path, "bad magic at byte 0: not a rumor graph store");
  }
  const std::uint32_t version = get_u32(hdr + kOffVersion);
  if (version != kGraphStoreVersion) {
    fail(path, "unsupported format version " + std::to_string(version) + " at byte " +
                   std::to_string(kOffVersion) + " (this build reads version " +
                   std::to_string(kGraphStoreVersion) + ")");
  }
  const std::uint32_t flags = get_u32(hdr + kOffFlags);
  if ((flags & ~kFlagWideOffsets) != 0) {
    fail(path, "unknown flag bits at byte " + std::to_string(kOffFlags));
  }

  Layout lay;
  lay.wide = (flags & kFlagWideOffsets) != 0;
  lay.n = get_u64(hdr + kOffN);
  lay.arcs = get_u64(hdr + kOffArcs);
  lay.name_len = get_u64(hdr + kOffNameLen);
  lay.prov_len = get_u64(hdr + kOffProvLen);

  if (lay.n > 0xffffffffULL) {
    fail(path, "node count " + std::to_string(lay.n) + " at byte " + std::to_string(kOffN) +
                   " exceeds 32-bit node ids");
  }
  if (lay.wide != graph_store_wide_offsets(lay.arcs)) {
    // The width is a function of the arc count, so a mismatch means either
    // field is corrupt; rejecting keeps the encoding canonical.
    fail(path, "offset-width flag at byte " + std::to_string(kOffFlags) +
                   " is inconsistent with arc count at byte " + std::to_string(kOffArcs));
  }
  if (lay.total_bytes() != file_size) {
    fail(path, "file is " + std::to_string(file_size) + " bytes but the header at byte " +
                   std::to_string(kOffN) + " declares a layout of " +
                   std::to_string(lay.total_bytes()) + " bytes");
  }

  info.version = version;
  info.wide_offsets = lay.wide;
  info.n = lay.n;
  info.arcs = lay.arcs;
  info.checksum = get_u64(hdr + kOffChecksum);
  info.file_size = file_size;
  return lay;
}

/// The store's provenance: a compact JSON object naming the writer, the
/// binary's build_info fields but its flags, and the optional source note.
std::string make_provenance(const std::string& source) {
  json::Json prov = json::Json::object();
  prov.set("writer", "rumor graph_store v" + std::to_string(kGraphStoreVersion));
  json::Json build = obs::build_info_json();
  for (auto& [key, value] : build.mutable_entries()) {
    if (key != "flags") prov.set(key, std::move(value));
  }
  if (!source.empty()) prov.set("source", source);
  return prov.dump();
}

}  // namespace

void write_graph_store(const Graph& g, const std::string& path, const std::string& source) {
  const std::uint64_t n = g.num_nodes();
  const std::uint64_t arcs = static_cast<std::uint64_t>(g.num_edges()) * 2;
  const bool wide = graph_store_wide_offsets(arcs);
  const std::string& name = g.name();
  const std::string provenance = make_provenance(source);

  // Rebuild the offsets array in the stored width from public degrees (so
  // any Graph — owned or already mapped — can be packed).
  std::vector<std::uint8_t> offsets((n + 1) * (wide ? 8u : 4u));
  {
    std::uint64_t off = 0;
    for (std::uint64_t v = 0; v <= n; ++v) {
      if (wide) {
        put_u64(offsets.data() + v * 8, off);
      } else {
        put_u32(offsets.data() + v * 4, static_cast<std::uint32_t>(off));
      }
      if (v < n) off += g.degree(static_cast<NodeId>(v));
    }
  }

  const NodeId* neighbors = detail::GraphAccess::neighbors_data(g);
  std::uint64_t checksum = fnv1a64(offsets.data(), offsets.size(), kFnvBasis);
  checksum = fnv1a64(neighbors, static_cast<std::size_t>(arcs) * sizeof(NodeId), checksum);
  checksum = fnv1a64(name.data(), name.size(), checksum);

  std::uint8_t hdr[kGraphStoreHeaderBytes] = {};
  std::memcpy(hdr + kOffMagic, kGraphStoreMagic, sizeof kGraphStoreMagic);
  put_u32(hdr + kOffVersion, kGraphStoreVersion);
  put_u32(hdr + kOffFlags, wide ? kFlagWideOffsets : 0u);
  put_u64(hdr + kOffN, n);
  put_u64(hdr + kOffArcs, arcs);
  put_u64(hdr + kOffChecksum, checksum);
  put_u64(hdr + kOffNameLen, name.size());
  put_u64(hdr + kOffProvLen, provenance.size());

  // Atomic publish: write a sibling temp file, then rename over the target,
  // so a crash mid-pack never leaves a torn store at `path`.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) fail(path, "cannot create temp file " + tmp);
    out.write(reinterpret_cast<const char*>(hdr), sizeof hdr);
    out.write(reinterpret_cast<const char*>(offsets.data()),
              static_cast<std::streamsize>(offsets.size()));
    out.write(reinterpret_cast<const char*>(neighbors),
              static_cast<std::streamsize>(arcs * sizeof(NodeId)));
    out.write(name.data(), static_cast<std::streamsize>(name.size()));
    out.write(provenance.data(), static_cast<std::streamsize>(provenance.size()));
    out.flush();
    if (!out) {
      out.close();
      std::remove(tmp.c_str());
      fail(path, "write failed on temp file " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    std::remove(tmp.c_str());
    fail(path, std::string("rename from temp file failed: ") + std::strerror(err));
  }
}

GraphStoreInfo read_graph_store_info(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail(path, "cannot open graph store for reading");
  in.seekg(0, std::ios::end);
  const std::uint64_t file_size = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0, std::ios::beg);

  std::uint8_t hdr[kGraphStoreHeaderBytes] = {};
  in.read(reinterpret_cast<char*>(hdr),
          static_cast<std::streamsize>(std::min<std::uint64_t>(file_size, sizeof hdr)));
  if (!in && file_size >= kGraphStoreHeaderBytes) fail(path, "read failed on header");

  GraphStoreInfo info;
  const Layout lay = parse_header(hdr, file_size, path, info);

  info.name.resize(static_cast<std::size_t>(lay.name_len));
  info.provenance.resize(static_cast<std::size_t>(lay.prov_len));
  in.seekg(static_cast<std::streamoff>(lay.name_pos()));
  in.read(info.name.data(), static_cast<std::streamsize>(lay.name_len));
  in.read(info.provenance.data(), static_cast<std::streamsize>(lay.prov_len));
  if (!in) {
    fail(path, "read failed on trailing strings at byte " + std::to_string(lay.name_pos()));
  }
  return info;
}

GraphStoreInfo verify_graph_store(const std::string& path) {
  GraphStoreInfo info = read_graph_store_info(path);
  Layout lay;
  lay.wide = info.wide_offsets;
  lay.n = info.n;
  lay.arcs = info.arcs;
  lay.name_len = info.name.size();
  lay.prov_len = info.provenance.size();

  std::ifstream in(path, std::ios::binary);
  if (!in) fail(path, "cannot open graph store for reading");
  in.seekg(static_cast<std::streamoff>(kGraphStoreHeaderBytes));
  std::uint64_t remaining = lay.checksummed_bytes();
  std::uint64_t checksum = kFnvBasis;
  std::vector<char> buf(1 << 20);
  while (remaining > 0) {
    const std::size_t chunk =
        static_cast<std::size_t>(std::min<std::uint64_t>(remaining, buf.size()));
    in.read(buf.data(), static_cast<std::streamsize>(chunk));
    if (!in) fail(path, "read failed while verifying payload");
    checksum = fnv1a64(buf.data(), chunk, checksum);
    remaining -= chunk;
  }
  if (checksum != info.checksum) {
    fail(path, "checksum mismatch: header at byte " + std::to_string(kOffChecksum) +
                   " declares fnv1a64:" + hex64(info.checksum) + " but the payload hashes to fnv1a64:" +
                   hex64(checksum) + " (corrupt or tampered store)");
  }
  return info;
}

namespace {

#ifdef RUMOR_GRAPH_STORE_MMAP
/// Owns one read-only mmap of a store file for the lifetime of every Graph
/// (and Graph copy) opened from it.
struct Mapping {
  const std::uint8_t* data = nullptr;
  std::size_t size = 0;

  Mapping(const Mapping&) = delete;
  Mapping& operator=(const Mapping&) = delete;
  Mapping(const std::uint8_t* d, std::size_t s) noexcept : data(d), size(s) {}
  ~Mapping() {
    if (data != nullptr) ::munmap(const_cast<std::uint8_t*>(data), size);
  }
};

/// mmap()s the whole file read-only; throws with path + errno on failure.
std::shared_ptr<Mapping> map_file(const std::string& path, std::uint64_t& file_size_out) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    fail(path, std::string("cannot open graph store for reading: ") + std::strerror(errno));
  }
  struct ::stat st = {};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    fail(path, std::string("fstat failed: ") + std::strerror(err));
  }
  file_size_out = static_cast<std::uint64_t>(st.st_size);
  if (file_size_out < kGraphStoreHeaderBytes) {
    ::close(fd);
    fail(path, "truncated header: file is " + std::to_string(file_size_out) + " bytes, need " +
                   std::to_string(kGraphStoreHeaderBytes) + " (at byte 0)");
  }
  // MAP_SHARED + PROT_READ: every process mapping the same store shares the
  // same page-cache pages — the cross-shard dedup the store exists for.
  void* mem = ::mmap(nullptr, static_cast<std::size_t>(file_size_out), PROT_READ, MAP_SHARED, fd, 0);
  const int map_err = errno;
  ::close(fd);
  if (mem == MAP_FAILED) {
    fail(path, std::string("mmap failed: ") + std::strerror(map_err));
  }
  return std::make_shared<Mapping>(static_cast<const std::uint8_t*>(mem),
                                   static_cast<std::size_t>(file_size_out));
}
#else
/// Fallback for platforms without mmap: the "mapping" is the file read into
/// an owned buffer. Same pointer wiring, no page sharing.
struct Mapping {
  std::vector<std::uint8_t> bytes;
  const std::uint8_t* data = nullptr;
};

std::shared_ptr<Mapping> map_file(const std::string& path, std::uint64_t& file_size_out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail(path, "cannot open graph store for reading");
  in.seekg(0, std::ios::end);
  file_size_out = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0, std::ios::beg);
  auto m = std::make_shared<Mapping>();
  m->bytes.resize(static_cast<std::size_t>(file_size_out));
  in.read(reinterpret_cast<char*>(m->bytes.data()),
          static_cast<std::streamsize>(m->bytes.size()));
  if (!in) fail(path, "read failed");
  m->data = m->bytes.data();
  return m;
}
#endif

}  // namespace

GraphView open_graph_store(const std::string& path) {
  std::uint64_t file_size = 0;
  std::shared_ptr<Mapping> mapping = map_file(path, file_size);

  GraphStoreInfo info;
  const Layout lay = parse_header(mapping->data, file_size, path, info);

  const std::uint8_t* base = mapping->data;
  const std::uint32_t* offsets32 = nullptr;
  const std::uint64_t* offsets64 = nullptr;
  if (lay.wide) {
    offsets64 = reinterpret_cast<const std::uint64_t*>(base + kGraphStoreHeaderBytes);
  } else {
    offsets32 = reinterpret_cast<const std::uint32_t*>(base + kGraphStoreHeaderBytes);
  }
  const auto* neighbors = reinterpret_cast<const NodeId*>(base + lay.neighbors_pos());
  std::string name(reinterpret_cast<const char*>(base + lay.name_pos()),
                   static_cast<std::size_t>(lay.name_len));

  return detail::GraphAccess::make_mapped(
      std::shared_ptr<const void>(mapping, mapping->data), offsets32, offsets64, neighbors,
      static_cast<NodeId>(lay.n), static_cast<std::size_t>(lay.arcs), std::move(name));
}

std::string graph_store_info_dump(const GraphStoreInfo& info, const std::string& path,
                                  bool verified) {
  std::ostringstream out;
  out << "path:       " << path << "\n";
  out << "format:     RUMORCSR v" << info.version << " (little-endian packed CSR)\n";
  out << "file_size:  " << info.file_size << " bytes\n";
  out << "name:       " << info.name << "\n";
  out << "nodes:      " << info.n << "\n";
  out << "edges:      " << info.num_edges() << "\n";
  out << "arcs:       " << info.arcs << "\n";
  out << "offsets:    " << (info.wide_offsets ? "64-bit" : "32-bit") << "\n";
  out << "checksum:   fnv1a64:" << hex64(info.checksum)
      << (verified ? "  (payload verified)" : "") << "\n";
  out << "provenance: " << (info.provenance.empty() ? "(none)" : info.provenance) << "\n";
  return out.str();
}

}  // namespace rumor::graph
