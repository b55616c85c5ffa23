#include "runner/journal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "runner/report.h"
#include "runner/seed.h"
#include "sim/checksum.h"

namespace pert::runner {

namespace {

constexpr std::string_view kMagic = "PERTJ1";

[[noreturn]] void fail_errno(const std::string& what, const std::string& path) {
  throw std::runtime_error(what + " " + path + ": " + std::strerror(errno));
}

std::string dir_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

void fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;  // not fatal: some filesystems refuse directory fds
  ::fsync(fd);
  ::close(fd);
}

void write_all(int fd, std::string_view data, const std::string& path) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ::ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail_errno("write failed:", path);
    }
    off += static_cast<std::size_t>(n);
  }
}

std::string crc_hex(std::string_view payload) {
  char buf[9];
  std::snprintf(buf, sizeof buf, "%08x", sim::crc32(payload));
  return buf;
}

JsonValue header_to_json(const JournalHeader& h) {
  JsonValue::Object o;
  o.emplace_back("journal", JsonValue("pert-runner-v1"));
  o.emplace_back("name", JsonValue(h.name));
  o.emplace_back("jobs", JsonValue(h.jobs));
  o.emplace_back("grid", JsonValue(h.grid));
  // Shard keys only when sharded: unsharded journals keep the pre-shard byte
  // format (and stay resumable by pre-shard builds).
  if (h.shard.active()) {
    o.emplace_back("shard_index",
                   JsonValue(static_cast<std::uint64_t>(h.shard.index)));
    o.emplace_back("shard_count",
                   JsonValue(static_cast<std::uint64_t>(h.shard.count)));
    o.emplace_back("shard_grid", JsonValue(h.base));
  }
  return JsonValue(std::move(o));
}

bool header_from_json(std::string_view payload, JournalHeader& out) {
  JsonValue v;
  try {
    v = JsonValue::parse(payload);
  } catch (const JsonParseError&) {
    return false;  // unparseable JSON is corruption, not a header
  }
  const JsonValue* tag = v.find("journal");
  if (!tag || !tag->is_string() || tag->as_string() != "pert-runner-v1")
    return false;
  const JsonValue* name = v.find("name");
  const JsonValue* jobs = v.find("jobs");
  const JsonValue* grid = v.find("grid");
  if (!name || !name->is_string() || !jobs || !jobs->is_uint() || !grid ||
      !grid->is_uint())
    return false;
  out.name = name->as_string();
  out.jobs = jobs->as_uint();
  out.grid = grid->as_uint();
  out.base = out.grid;
  out.shard = {};
  const JsonValue* si = v.find("shard_index");
  const JsonValue* sc = v.find("shard_count");
  const JsonValue* sg = v.find("shard_grid");
  if (si && sc && sg && si->is_uint() && sc->is_uint() && sg->is_uint()) {
    try {
      out.shard = ShardSpec(si->as_uint(), sc->as_uint());
    } catch (const std::invalid_argument&) {
      return false;  // an impossible shard spec is corruption, not a header
    }
    out.base = sg->as_uint();
  } else if (si || sc || sg) {
    return false;  // a partial shard triple is corruption, not a header
  }
  return true;
}

/// Decodes one complete line (no trailing '\n'). Returns false when the line
/// is not a valid frame; `type`/`payload` are set only on success.
bool decode_frame(std::string_view line, char& type, std::string_view& payload) {
  // "PERTJ1 T XXXXXXXX <payload>"
  if (line.size() < kMagic.size() + 13) return false;
  if (line.substr(0, kMagic.size()) != kMagic) return false;
  std::size_t p = kMagic.size();
  if (line[p] != ' ') return false;
  ++p;
  const char t = line[p];
  if (t != 'H' && t != 'R') return false;
  if (line[p + 1] != ' ') return false;
  p += 2;
  const std::string_view crc_field = line.substr(p, 8);
  if (line[p + 8] != ' ') return false;
  std::uint32_t crc = 0;
  for (char c : crc_field) {
    crc <<= 4;
    if (c >= '0' && c <= '9') crc |= static_cast<std::uint32_t>(c - '0');
    else if (c >= 'a' && c <= 'f') crc |= static_cast<std::uint32_t>(c - 'a' + 10);
    else return false;
  }
  const std::string_view body = line.substr(p + 9);
  if (sim::crc32(body) != crc) return false;
  type = t;
  payload = body;
  return true;
}

int open_append(const std::string& path) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) fail_errno("cannot open journal for appending:", path);
  return fd;
}

}  // namespace

std::string journal_frame(char type, const std::string& payload) {
  std::string line;
  line.reserve(kMagic.size() + payload.size() + 16);
  line += kMagic;
  line += ' ';
  line += type;
  line += ' ';
  line += crc_hex(payload);
  line += ' ';
  line += payload;
  line += '\n';
  return line;
}

JournalHeader journal_header(std::string_view name,
                             const std::vector<Job>& jobs,
                             ShardSpec shard) {
  JournalHeader h;
  h.name = name;
  h.jobs = jobs.size();
  h.shard = shard;
  // Fold every (key, seed) pair, order-sensitively, through the same FNV/
  // splitmix primitives the seed rule uses.
  std::uint64_t acc = fnv1a64(name);
  for (const Job& j : jobs) {
    acc = splitmix64(acc ^ fnv1a64(j.key));
    acc = splitmix64(acc ^ j.seed);
  }
  h.base = acc;
  // Sharded identity additionally folds the shard spec, so --resume of a
  // shard journal by a different shard (or the unsharded sweep) is rejected
  // as "a different sweep" instead of silently skipping the wrong cells.
  h.grid = shard.active()
               ? splitmix64(splitmix64(acc ^ shard.index) ^ shard.count)
               : acc;
  return h;
}

void atomic_write_file(const std::string& path, std::string_view contents) {
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) fail_errno("cannot open for writing:", tmp);
  try {
    write_all(fd, contents, tmp);
  } catch (...) {
    ::close(fd);
    throw;
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    fail_errno("fsync failed:", tmp);
  }
  if (::close(fd) != 0) fail_errno("close failed:", tmp);
  if (::rename(tmp.c_str(), path.c_str()) != 0)
    fail_errno("rename failed:", path);
  fsync_dir(dir_of(path));
}

JournalRecovery recover_journal(const std::string& path) {
  JournalRecovery rec;
  std::ifstream f(path, std::ios::binary);
  if (!f) return rec;  // no journal => nothing recovered, start fresh
  std::ostringstream ss;
  ss << f.rdbuf();
  const std::string text = ss.str();

  std::string quarantine;          // raw undecodable lines, for forensics
  std::vector<std::pair<std::string, JobResult>> kept;  // (payload, decoded)
  std::unordered_map<std::string, std::size_t> by_key;  // key -> kept index
  bool saw_header = false;

  std::size_t pos = 0;
  bool first_line = true;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    const bool terminated = nl != std::string::npos;
    const std::string_view line =
        std::string_view(text).substr(pos, (terminated ? nl : text.size()) - pos);
    pos = terminated ? nl + 1 : text.size();

    char type = 0;
    std::string_view payload;
    // An unterminated final line is a torn tail by definition: even if its
    // checksum happens to verify, the record was not durably framed.
    const bool ok = terminated && decode_frame(line, type, payload);
    if (!ok) {
      if (!line.empty()) {
        quarantine.append(line);
        quarantine += '\n';
        ++rec.quarantined;
      }
      continue;
    }
    if (type == 'H') {
      JournalHeader h;
      if (first_line && !saw_header && header_from_json(payload, h)) {
        rec.header = h;
        saw_header = true;
      } else {
        // Headers are only trusted on line one; anything else is noise.
        quarantine.append(line);
        quarantine += '\n';
        ++rec.quarantined;
      }
    } else {
      JobResult r;
      bool decoded = true;
      try {
        r = result_from_json(JsonValue::parse(payload));
      } catch (const std::exception&) {
        decoded = false;
      }
      if (!decoded || r.key.empty()) {
        quarantine.append(line);
        quarantine += '\n';
        ++rec.quarantined;
      } else {
        ++rec.raw_records;
        const auto it = by_key.find(r.key);
        if (it != by_key.end()) {
          kept[it->second] = {std::string(payload), std::move(r)};  // last wins
          ++rec.duplicates;
        } else {
          by_key.emplace(r.key, kept.size());
          kept.emplace_back(std::string(payload), std::move(r));
        }
      }
    }
    first_line = false;
  }

  rec.usable = saw_header;

  if (!quarantine.empty()) {
    std::ofstream q(path + ".quarantine", std::ios::app | std::ios::binary);
    if (q) q << quarantine;
  }

  // Compact: rewrite the journal to exactly the surviving records so the
  // next append lands on a verified-clean file.
  if (rec.usable && (rec.quarantined > 0 || rec.duplicates > 0)) {
    std::string out = journal_frame('H', header_to_json(rec.header).dump());
    for (const auto& [payload, r] : kept) out += journal_frame('R', payload);
    atomic_write_file(path, out);
  }

  rec.records.reserve(kept.size());
  for (auto& [payload, r] : kept) rec.records.push_back(std::move(r));
  return rec;
}

Journal Journal::start_fresh(const std::string& path,
                             const JournalHeader& header) {
  atomic_write_file(path, journal_frame('H', header_to_json(header).dump()));
  return Journal(path, open_append(path));
}

Journal Journal::append_to(const std::string& path) {
  return Journal(path, open_append(path));
}

Journal::Journal(Journal&& other) noexcept
    : path_(std::move(other.path_)),
      fd_(other.fd_),
      appended_(other.appended_) {
  other.fd_ = -1;
}

Journal::~Journal() {
  if (fd_ >= 0) ::close(fd_);
}

void Journal::append(const JobResult& r) {
  const std::string line = journal_frame('R', to_json(r).dump());
  std::lock_guard<std::mutex> lock(mu_);
  write_all(fd_, line, path_);
  // fdatasync: the record itself must be durable before the runner counts
  // the cell done; metadata (mtime) is not part of the contract.
  if (::fdatasync(fd_) != 0) fail_errno("fdatasync failed:", path_);
  ++appended_;
}

}  // namespace pert::runner
