#include "graph/graph_store.hpp"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

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
constexpr std::size_t kOffFlags = 12;    // u32, every bit reserved (must be 0)
constexpr std::size_t kOffN = 16;        // u64 node count
constexpr std::size_t kOffArcs = 24;     // u64 arc count = 2m
constexpr std::size_t kOffChecksum = 32; // u64 FNV-1a over offsets||neighbors||name
constexpr std::size_t kOffNameLen = 40;  // u64
constexpr std::size_t kOffProvLen = 48;  // u64

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
  std::uint64_t n = 0;
  std::uint64_t arcs = 0;
  std::uint64_t name_len = 0;
  std::uint64_t prov_len = 0;

  [[nodiscard]] std::uint64_t neighbors_pos() const noexcept {
    return kGraphStoreHeaderBytes + (n + 1) * 4;
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
  if (flags != 0) {
    fail(path, "unknown flag bits at byte " + std::to_string(kOffFlags) +
                   " (every flag bit must be 0)");
  }

  Layout lay;
  lay.n = get_u64(hdr + kOffN);
  lay.arcs = get_u64(hdr + kOffArcs);
  lay.name_len = get_u64(hdr + kOffNameLen);
  lay.prov_len = get_u64(hdr + kOffProvLen);

  if (lay.n > 0xffffffffULL) {
    fail(path, "node count " + std::to_string(lay.n) + " at byte " + std::to_string(kOffN) +
                   " exceeds 32-bit node ids");
  }
  if (lay.arcs > 0xffffffffULL) {
    fail(path, "arc count " + std::to_string(lay.arcs) + " at byte " +
                   std::to_string(kOffArcs) + " exceeds 32-bit offsets");
  }
  // Bounding the string lengths by the file size first keeps total_bytes()
  // from wrapping.
  if (lay.name_len > file_size || lay.prov_len > file_size || lay.total_bytes() != file_size) {
    fail(path, "file is " + std::to_string(file_size) + " bytes but the header at byte " +
                   std::to_string(kOffN) + " declares a layout of " +
                   std::to_string(lay.total_bytes()) + " bytes");
  }

  info.version = version;
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

/// One read-only mmap of a store file, alive for as long as any Graph (or
/// Graph copy) opened from it.
struct Mapping {
  const std::uint8_t* data = nullptr;
  std::size_t size = 0;

  Mapping(const Mapping&) = delete;
  Mapping& operator=(const Mapping&) = delete;
  Mapping(const std::uint8_t* d, std::size_t s) noexcept : data(d), size(s) {}
  ~Mapping() { ::munmap(const_cast<std::uint8_t*>(data), size); }
};

/// A mapped store with its validated header: the one reader every public
/// entry point goes through.
struct MappedStore {
  std::shared_ptr<const Mapping> mapping;
  Layout lay;
  GraphStoreInfo info;  // header fields; name and provenance left empty
};

/// mmap()s the whole file read-only and validates its header; throws with
/// the path and errno or the offending byte on failure.
MappedStore map_store(const std::string& path) {
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
  const auto file_size = static_cast<std::uint64_t>(st.st_size);
  if (file_size < kGraphStoreHeaderBytes) {
    ::close(fd);
    fail(path, "truncated header: file is " + std::to_string(file_size) + " bytes, need " +
                   std::to_string(kGraphStoreHeaderBytes) + " (at byte 0)");
  }
  // MAP_SHARED + PROT_READ: every process mapping the same store shares the
  // same page-cache pages — the cross-shard dedup the store exists for.
  void* mem = ::mmap(nullptr, static_cast<std::size_t>(file_size), PROT_READ, MAP_SHARED, fd, 0);
  const int map_err = errno;
  ::close(fd);
  if (mem == MAP_FAILED) {
    fail(path, std::string("mmap failed: ") + std::strerror(map_err));
  }
  MappedStore store;
  store.mapping = std::make_shared<const Mapping>(static_cast<const std::uint8_t*>(mem),
                                                  static_cast<std::size_t>(file_size));
  store.lay = parse_header(store.mapping->data, file_size, path, store.info);
  return store;
}

/// The header plus the trailing name and provenance strings.
GraphStoreInfo full_info(const MappedStore& store) {
  const auto* base = reinterpret_cast<const char*>(store.mapping->data);
  GraphStoreInfo info = store.info;
  info.name.assign(base + store.lay.name_pos(), static_cast<std::size_t>(store.lay.name_len));
  info.provenance.assign(base + store.lay.prov_pos(), static_cast<std::size_t>(store.lay.prov_len));
  return info;
}

/// Checks the CSR payload with one sequential pass and no hashing: offsets
/// start at 0, never decrease, stay within and end at the arc count, and
/// every neighbor id is below n. That is what keeps every row read inside
/// the mapping. Errors name the path, the byte of the first bad entry and
/// the bound it breaks.
void check_payload(const std::uint32_t* offsets, const NodeId* neighbors, const Layout& lay,
                   const std::string& path) {
  const std::uint64_t n = lay.n;
  const std::uint64_t arcs = lay.arcs;
  auto offset_byte = [](std::uint64_t v) { return kGraphStoreHeaderBytes + v * 4; };
  if (offsets[0] != 0) {
    fail(path, "offsets[0] at byte " + std::to_string(offset_byte(0)) + " is " +
                   std::to_string(offsets[0]) + ", expected 0");
  }
  // Branch-free scans, so a valid store costs memory bandwidth only; the
  // search for the first bad entry runs on a corrupt store alone.
  bool offsets_bad = false;
  for (std::uint64_t v = 1; v <= n; ++v) {
    offsets_bad |= (offsets[v] < offsets[v - 1]) | (offsets[v] > arcs);
  }
  if (offsets_bad) {
    std::uint64_t v = 1;
    while (offsets[v] >= offsets[v - 1] && offsets[v] <= arcs) ++v;
    fail(path, "offsets[" + std::to_string(v) + "] at byte " + std::to_string(offset_byte(v)) +
                   " is " + std::to_string(offsets[v]) + ", outside [offsets[" +
                   std::to_string(v - 1) + "] = " + std::to_string(offsets[v - 1]) +
                   ", arc count " + std::to_string(arcs) + "]");
  }
  if (offsets[n] != arcs) {
    fail(path, "offsets[" + std::to_string(n) + "] at byte " + std::to_string(offset_byte(n)) +
                   " is " + std::to_string(offsets[n]) + ", expected the arc count " +
                   std::to_string(arcs));
  }
  NodeId max_id = 0;
  for (std::uint64_t i = 0; i < arcs; ++i) max_id = std::max(max_id, neighbors[i]);
  if (arcs > 0 && max_id >= n) {
    std::uint64_t i = 0;
    while (neighbors[i] < n) ++i;
    fail(path, "neighbor id " + std::to_string(neighbors[i]) + " at byte " +
                   std::to_string(lay.neighbors_pos() + i * 4) +
                   " is not below the node count " + std::to_string(n));
  }
}

}  // namespace

void write_graph_store(const Graph& g, const std::string& path, const std::string& source) {
  const std::uint64_t n = g.num_nodes();
  const std::uint64_t arcs = static_cast<std::uint64_t>(g.num_edges()) * 2;
  const Graph::Csr csr = g.csr();
  const std::string& name = g.name();
  const std::string provenance = make_provenance(source);

  const std::string_view offsets(reinterpret_cast<const char*>(csr.offsets),
                                 static_cast<std::size_t>(n + 1) * sizeof(std::uint32_t));
  const std::string_view neighbors(reinterpret_cast<const char*>(csr.neighbors),
                                   static_cast<std::size_t>(arcs) * sizeof(NodeId));
  std::uint64_t checksum = fnv1a64(offsets.data(), offsets.size(), kFnvBasis);
  checksum = fnv1a64(neighbors.data(), neighbors.size(), checksum);
  checksum = fnv1a64(name.data(), name.size(), checksum);

  std::uint8_t hdr[kGraphStoreHeaderBytes] = {};
  std::memcpy(hdr + kOffMagic, kGraphStoreMagic, sizeof kGraphStoreMagic);
  put_u32(hdr + kOffVersion, kGraphStoreVersion);
  put_u64(hdr + kOffN, n);
  put_u64(hdr + kOffArcs, arcs);
  put_u64(hdr + kOffChecksum, checksum);
  put_u64(hdr + kOffNameLen, name.size());
  put_u64(hdr + kOffProvLen, provenance.size());

  const std::string_view parts[] = {
      {reinterpret_cast<const char*>(hdr), sizeof hdr}, offsets, neighbors, name, provenance};
  std::string error;
  if (!json::write_file_atomic(path, parts, error)) fail(path, error);
}

GraphStoreInfo read_graph_store_info(const std::string& path) { return full_info(map_store(path)); }

GraphStoreInfo verify_graph_store(const std::string& path) {
  const MappedStore store = map_store(path);
  const std::uint64_t checksum =
      fnv1a64(store.mapping->data + kGraphStoreHeaderBytes,
              static_cast<std::size_t>(store.lay.checksummed_bytes()), kFnvBasis);
  if (checksum != store.info.checksum) {
    fail(path, "checksum mismatch: header at byte " + std::to_string(kOffChecksum) +
                   " declares fnv1a64:" + hex64(store.info.checksum) +
                   " but the payload hashes to fnv1a64:" + hex64(checksum) +
                   " (corrupt or tampered store)");
  }
  return full_info(store);
}

Graph open_graph_store(const std::string& path) {
  MappedStore store = map_store(path);
  const std::uint8_t* base = store.mapping->data;
  const auto* offsets = reinterpret_cast<const std::uint32_t*>(base + kGraphStoreHeaderBytes);
  const auto* neighbors = reinterpret_cast<const NodeId*>(base + store.lay.neighbors_pos());
  check_payload(offsets, neighbors, store.lay, path);
  std::string name(reinterpret_cast<const char*>(base + store.lay.name_pos()),
                   static_cast<std::size_t>(store.lay.name_len));
  return Graph(std::move(store.mapping), offsets, neighbors, static_cast<NodeId>(store.lay.n),
               true, std::move(name));
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
  out << "offsets:    32-bit\n";
  out << "checksum:   fnv1a64:" << hex64(info.checksum)
      << (verified ? "  (payload verified)" : "") << "\n";
  out << "provenance: " << (info.provenance.empty() ? "(none)" : info.provenance) << "\n";
  return out.str();
}

}  // namespace rumor::graph
