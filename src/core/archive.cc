#include "core/archive.h"

#include <cstring>
#include <fstream>

namespace gdisim {
namespace {

constexpr char kMagic[8] = {'G', 'D', 'I', 'S', 'N', 'A', 'P', '1'};
constexpr std::uint32_t kSectionMagic = 0x5EC7105Eu;

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

StateArchive StateArchive::reader(std::vector<std::uint8_t> payload) {
  StateArchive ar(Mode::kRead);
  ar.buf_ = std::move(payload);
  return ar;
}

void StateArchive::put(const std::uint8_t* bytes, std::size_t n) {
  buf_.insert(buf_.end(), bytes, bytes + n);
}

void StateArchive::get(std::uint8_t* bytes, std::size_t n) {
  if (cursor_ + n > buf_.size()) {
    throw std::runtime_error("snapshot truncated: need " + std::to_string(n) +
                             " byte(s) at byte " + std::to_string(cursor_) +
                             ", payload holds " + std::to_string(buf_.size()));
  }
  std::memcpy(bytes, buf_.data() + cursor_, n);
  cursor_ += n;
}

void StateArchive::u8(std::uint8_t& v) {
  if (writing()) {
    put(&v, 1);
  } else {
    get(&v, 1);
  }
}

void StateArchive::u32(std::uint32_t& v) {
  std::uint8_t b[4];
  if (writing()) {
    for (int i = 0; i < 4; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    put(b, 4);
  } else {
    get(b, 4);
    v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
  }
}

void StateArchive::u64(std::uint64_t& v) {
  std::uint8_t b[8];
  if (writing()) {
    for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    put(b, 8);
  } else {
    get(b, 8);
    v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
  }
}

void StateArchive::i64(std::int64_t& v) {
  auto u = static_cast<std::uint64_t>(v);
  u64(u);
  v = static_cast<std::int64_t>(u);
}

void StateArchive::f64(double& v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(double) == sizeof(std::uint64_t));
  if (writing()) std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
  if (reading()) std::memcpy(&v, &bits, sizeof(bits));
}

void StateArchive::boolean(bool& v) {
  std::uint8_t b = v ? 1 : 0;
  u8(b);
  if (reading()) {
    if (b > 1) throw std::runtime_error("snapshot corrupt: boolean byte not 0/1");
    v = b != 0;
  }
}

void StateArchive::str(std::string& v) {
  std::size_t n = v.size();
  count(n);
  if (writing()) {
    put(reinterpret_cast<const std::uint8_t*>(v.data()), v.size());
  } else {
    v.resize(n);
    if (n > 0) get(reinterpret_cast<std::uint8_t*>(v.data()), v.size());
  }
}

void StateArchive::size_value(std::size_t& v) {
  auto n = static_cast<std::uint64_t>(v);
  u64(n);
  v = static_cast<std::size_t>(n);
}

void StateArchive::count(std::size_t& n) {
  size_value(n);
  if (reading() && n > buf_.size() - cursor_) {
    throw std::runtime_error("snapshot corrupt: element count " + std::to_string(n) +
                             " exceeds the " + std::to_string(buf_.size() - cursor_) +
                             " unread byte(s)");
  }
}

void StateArchive::section(const char* name) {
  std::uint32_t magic = kSectionMagic;
  u32(magic);
  if (reading() && magic != kSectionMagic) {
    throw std::runtime_error(std::string("snapshot stream desynchronized before section '") +
                             name + "'");
  }
  std::string label = name;
  str(label);
  if (reading() && label != name) {
    throw std::runtime_error(std::string("snapshot section mismatch: expected '") + name +
                             "', stream holds '" + label + "'");
  }
}

void StateArchive::write_to_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("snapshot: cannot open '" + path + "' for writing");

  auto put_u32 = [&out](std::uint32_t v) {
    char b[4];
    for (int i = 0; i < 4; ++i) b[i] = static_cast<char>(v >> (8 * i));
    out.write(b, 4);
  };
  auto put_u64 = [&out](std::uint64_t v) {
    char b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<char>(v >> (8 * i));
    out.write(b, 8);
  };

  out.write(kMagic, sizeof(kMagic));
  put_u32(kFormatVersion);
  put_u64(buf_.size());
  out.write(reinterpret_cast<const char*>(buf_.data()),
            static_cast<std::streamsize>(buf_.size()));
  put_u64(fnv1a(buf_));
  out.flush();
  if (!out) throw std::runtime_error("snapshot: short write to '" + path + "'");
}

StateArchive StateArchive::read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error(path + ": cannot open snapshot file");

  // Diagnostics carry the byte offset of the failing header field, in the
  // same `source:position: why` shape the scenario loader uses.
  auto fail = [&path](std::uint64_t offset, const std::string& why) {
    throw std::runtime_error(path + ":byte " + std::to_string(offset) + ": " + why);
  };
  auto get_u32 = [&in, &fail](std::uint64_t offset, const char* what) {
    std::uint8_t b[4];
    if (!in.read(reinterpret_cast<char*>(b), 4)) {
      fail(offset, std::string("truncated header: missing ") + what);
    }
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
    return v;
  };
  auto get_u64 = [&in, &fail](std::uint64_t offset, const char* what) {
    std::uint8_t b[8];
    if (!in.read(reinterpret_cast<char*>(b), 8)) {
      fail(offset, std::string("truncated header: missing ") + what);
    }
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
    return v;
  };

  char magic[8];
  if (!in.read(magic, sizeof(magic)) || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    fail(0, "not a GDISim snapshot (bad magic)");
  }
  const std::uint32_t version = get_u32(sizeof(kMagic), "format version");
  if (version != kFormatVersion) {
    fail(sizeof(kMagic), "format version " + std::to_string(version) +
                             ", this build reads " + std::to_string(kFormatVersion));
  }
  const std::uint64_t size_offset = sizeof(kMagic) + sizeof(std::uint32_t);
  const std::uint64_t payload_size = get_u64(size_offset, "payload size");
  const std::uint64_t payload_offset = size_offset + sizeof(std::uint64_t);
  // Validate the declared size against the actual file length before
  // allocating: a corrupted size field must fail cleanly, not bad_alloc.
  const auto data_pos = in.tellg();
  in.seekg(0, std::ios::end);
  const auto end_pos = in.tellg();
  in.seekg(data_pos);
  const std::uint64_t remaining =
      end_pos > data_pos ? static_cast<std::uint64_t>(end_pos - data_pos) : 0;
  if (payload_size + sizeof(std::uint64_t) != remaining) {
    fail(size_offset, "declared payload size " + std::to_string(payload_size) +
                          " disagrees with the " + std::to_string(remaining) +
                          " byte(s) after the header (truncated or corrupt file)");
  }
  std::vector<std::uint8_t> payload(static_cast<std::size_t>(payload_size));
  if (payload_size > 0 &&
      !in.read(reinterpret_cast<char*>(payload.data()),
               static_cast<std::streamsize>(payload_size))) {
    fail(payload_offset, "truncated payload");
  }
  const std::uint64_t checksum = get_u64(payload_offset + payload_size, "checksum");
  if (checksum != fnv1a(payload)) {
    fail(payload_offset + payload_size, "checksum mismatch (corrupt file)");
  }
  return reader(std::move(payload));
}

void HandlerRegistry::bind(AgentId owner, std::uint64_t serial,
                           StageCompletionHandler* handler) {
  key_by_handler_[handler] = HandlerKey{owner, serial};
  handler_by_key_[{owner, serial}] = handler;
}

HandlerKey HandlerRegistry::key_of(StageCompletionHandler* handler) const {
  const auto it = key_by_handler_.find(handler);
  if (it == key_by_handler_.end()) {
    throw std::runtime_error(
        "snapshot: stage handler not bound to a stable id — a live job references an "
        "operation instance its launcher did not archive");
  }
  return it->second;
}

StageCompletionHandler* HandlerRegistry::resolve(const HandlerKey& key) const {
  const auto it = handler_by_key_.find({key.owner, key.serial});
  if (it == handler_by_key_.end()) {
    throw std::runtime_error("snapshot: no live instance for handler key (owner=" +
                             std::to_string(key.owner) + ", serial=" +
                             std::to_string(key.serial) + ")");
  }
  return it->second;
}

void HandlerRegistry::bind_memory(AgentId cpu_id, MemoryComponent* memory) {
  key_by_memory_[memory] = cpu_id;
  memory_by_key_[cpu_id] = memory;
}

AgentId HandlerRegistry::memory_key(MemoryComponent* memory) const {
  const auto it = key_by_memory_.find(memory);
  if (it == key_by_memory_.end()) {
    throw std::runtime_error("snapshot: memory component not bound to a stable id");
  }
  return it->second;
}

MemoryComponent* HandlerRegistry::resolve_memory(AgentId cpu_id) const {
  const auto it = memory_by_key_.find(cpu_id);
  if (it == memory_by_key_.end()) {
    throw std::runtime_error("snapshot: no memory component bound for cpu agent " +
                             std::to_string(cpu_id));
  }
  return it->second;
}

Agent* HandlerRegistry::resolve_agent(AgentId id) const {
  if (!agent_resolver_) {
    throw std::runtime_error("snapshot: no agent resolver bound to the registry");
  }
  Agent* agent = agent_resolver_(id);
  if (agent == nullptr) {
    throw std::runtime_error("snapshot: agent id " + std::to_string(id) +
                             " does not exist in this simulation");
  }
  return agent;
}

}  // namespace gdisim
