#include "support/record_log.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "support/strings.h"

namespace prose::record_log {
namespace {

void (*g_crash_hook)(const char*) = nullptr;

/// Test seam: crash tests SIGKILL themselves here to pin what each cut point
/// leaves on disk. A null check on a cold path in production.
void crash_point(const char* step, const char* what) {
  if (g_crash_hook != nullptr && step != nullptr) {
    g_crash_hook((std::string(step) + what).c_str());
  }
}

Status sys_error(const std::string& what, const std::string& path) {
  return Status(StatusCode::kRuntimeFault,
                what + " '" + path + "': " + std::strerror(errno));
}

bool write_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::write(fd, data.data(), data.size());
    if (n < 0 && errno != EINTR) return false;
    if (n > 0) data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

/// fsync on the directory itself: what makes a create, rename or unlink
/// durable.
Status fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return sys_error("cannot open directory", dir);
  const Status s =
      ::fsync(fd) == 0 ? Status::ok() : sys_error("fsync failed on", dir);
  ::close(fd);
  return s;
}

std::string parent_dir(const std::string& path) {
  const std::size_t slash = path.rfind('/');
  if (slash == std::string::npos) return ".";
  return slash == 0 ? "/" : path.substr(0, slash);
}

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::in | std::ios::binary);
  std::ostringstream text;
  if (in) text << in.rdbuf();
  return text.str();
}

/// Recovers `text`, the contents of `path`. For a segment (`segment`
/// non-null) the header's "segment" must name the file's own index.
StatusOr<std::size_t> recover(std::string_view text, const std::string& path,
                              const Schema& schema,
                              const std::size_t* segment) {
  const auto refuse = [&](const char* why) {
    return Status(StatusCode::kInvalidArgument,
                  "'" + path + "' " + why + " " + schema.header_type +
                      " header — refusing to treat it as a " + schema.noun);
  };
  bool has_header = false;
  std::size_t valid = 0;
  for (std::size_t nl; (nl = text.find('\n', valid)) != std::string_view::npos;
       valid = nl + 1) {
    const std::string_view line = text.substr(valid, nl - valid);
    if (line.empty()) continue;
    auto parsed = json::parse(line);
    if (has_header) {
      if (!parsed.is_ok() || !schema.accept_record(parsed.value())) {
        break;  // corrupt record: keep the prefix before it
      }
      continue;
    }
    // A torn header never gains a newline, so a complete first line that is
    // not the header means this is somebody else's file.
    const json::Value* type =
        parsed.is_ok() ? parsed.value().find("type") : nullptr;
    if (type == nullptr || type->str_or("") != schema.header_type) {
      return refuse("does not start with a");
    }
    if (schema.accept_header) {
      if (Status s = schema.accept_header(parsed.value()); !s.is_ok()) return s;
    }
    if (segment != nullptr) {
      const json::Value* named = parsed.value().find("segment");
      const long n = named != nullptr ? static_cast<long>(named->int_or(-1)) : -1;
      if (n != static_cast<long>(*segment)) {
        return Status(StatusCode::kInvalidArgument,
                      "'" + path + "' header names segment " +
                          std::to_string(n) + ", not " +
                          std::to_string(*segment) +
                          " — refusing a copied or spliced segment file");
      }
    }
    has_header = true;
  }
  if (!has_header && valid > 0) return refuse("has records but no");
  return valid;
}

/// "seg-NNNNNN.jsonl" → index. Anything else, a different width included,
/// is not a segment and is left alone.
bool parse_segment_name(std::string_view name, std::size_t* index) {
  if (name.size() != 16 || !starts_with(name, "seg-") ||
      !ends_with(name, ".jsonl")) {
    return false;
  }
  std::size_t v = 0;
  for (const char c : name.substr(4, 6)) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::size_t>(c - '0');
  }
  *index = v;
  return true;
}

}  // namespace

StatusOr<std::size_t> recover_file(const std::string& path,
                                   const Schema& schema) {
  return recover(read_text(path), path, schema, nullptr);
}

File& File::operator=(File&& other) noexcept {
  std::swap(fd_, other.fd_);  // `other` closes what this held
  std::swap(size_, other.size_);
  std::swap(path_, other.path_);
  return *this;
}

void File::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

StatusOr<File> File::create(const std::string& path, std::string_view content,
                            const char* step, bool sync_dir) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return sys_error("cannot create", path);
  File file(fd, path, content.size());
  Status s = write_all(fd, content) ? Status::ok()
                                    : sys_error("write failed on", path);
  crash_point(step, "written");
  if (s.is_ok() && ::fsync(fd) != 0) s = sys_error("fsync failed on", path);
  crash_point(step, "synced");
  if (sync_dir) {
    if (s.is_ok()) s = fsync_dir(parent_dir(path));
    crash_point(step, "dir_synced");
  }
  if (s.is_ok()) return file;
  file.close();
  ::unlink(path.c_str());
  return s;
}

StatusOr<File> File::open(const std::string& path, std::size_t keep_bytes,
                          std::string_view header) {
  const int fd = ::open(path.c_str(), O_WRONLY);
  if (fd < 0 && errno == ENOENT) {
    return create(path, header, /*step=*/nullptr, /*sync_dir=*/true);
  }
  if (fd < 0) return sys_error("cannot open", path);
  File file(fd, path, keep_bytes);
  const auto keep = static_cast<off_t>(keep_bytes);
  if (::ftruncate(fd, keep) != 0 || ::lseek(fd, keep, SEEK_SET) < 0) {
    return sys_error("cannot truncate", path);
  }
  if (keep_bytes == 0) {
    if (Status s = file.append(header); !s.is_ok()) return s;
  }
  return file;
}

Status File::append(std::string_view line) {
  if (fd_ < 0) {
    return Status(StatusCode::kRuntimeFault,
                  "append to a closed log '" + path_ + "'");
  }
  Status s = write_all(fd_, line) ? Status::ok()
                                  : sys_error("write failed on", path_);
  // Durable before the caller acts on the record: that is what makes the
  // log write-ahead.
  if (s.is_ok() && ::fsync(fd_) != 0) s = sys_error("fsync failed on", path_);
  if (!s.is_ok()) {
    close();
    return s;
  }
  size_ += line.size();
  return s;
}

std::string SegmentedLog::segment_path(std::size_t index) const {
  char name[32];
  std::snprintf(name, sizeof name, "/seg-%06zu.jsonl", index);
  return dir_ + name;
}

std::string SegmentedLog::segment_header(std::size_t index) const {
  return header_.substr(0, header_.size() - 1) + ",\"segment\":" +
         std::to_string(index) + "}\n";
}

StatusOr<SegmentedLog> SegmentedLog::open(const std::string& dir,
                                          const Schema& schema,
                                          std::string header,
                                          std::size_t rotate_bytes) {
  // A path that exists but is no directory fails at opendir() (ENOTDIR).
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return sys_error("cannot create directory", dir);
  }

  SegmentedLog log;
  log.dir_ = dir;
  log.header_ = std::move(header);
  log.rotate_bytes_ = rotate_bytes;
  std::vector<std::string> stale_tmp;  // interrupted compaction, never renamed
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return sys_error("cannot open directory", dir);
  while (const dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    std::size_t index = 0;
    if (parse_segment_name(name, &index)) {
      log.segments_.push_back(index);
    } else if (name.size() > 4 && ends_with(name, ".tmp")) {
      stale_tmp.push_back(dir + "/" + name);
    }
  }
  ::closedir(d);
  for (const std::string& path : stale_tmp) ::unlink(path.c_str());
  std::sort(log.segments_.begin(), log.segments_.end());

  // Every segment is recovered (owners dedup a half-compacted generation);
  // only the active one is truncated. Earlier segments were fsync'd whole
  // before the next one existed.
  std::size_t active_valid = 0;
  for (const std::size_t index : log.segments_) {
    const std::string path = log.segment_path(index);
    auto valid = recover(read_text(path), path, schema, &index);
    if (!valid.is_ok()) return valid.status();
    active_valid = valid.value();
  }
  if (log.segments_.empty()) log.segments_.push_back(0);
  const std::size_t active = log.segments_.back();
  auto file = File::open(log.segment_path(active), active_valid,
                         log.segment_header(active));
  if (!file.is_ok()) return file.status();
  log.active_ = std::move(file).value();
  return log;
}

Status SegmentedLog::rotate() {
  const std::size_t next = segments_.back() + 1;
  auto file = File::create(segment_path(next), segment_header(next), "rotate.",
                           /*sync_dir=*/true);
  if (!file.is_ok()) return file.status();
  active_ = std::move(file).value();
  segments_.push_back(next);
  return Status::ok();
}

Status SegmentedLog::append(std::string_view line) {
  if (active_.size() + line.size() > rotate_bytes_ &&
      active_.size() > segment_header(segments_.back()).size()) {
    if (Status s = rotate(); !s.is_ok()) return s;
  }
  return active_.append(line);
}

Status SegmentedLog::compact(std::string_view records) {
  const std::size_t next = segments_.back() + 1;
  const std::string path = segment_path(next);
  const std::string tmp = path + ".tmp";
  const std::string header = segment_header(next);

  // 1. Write the whole new generation into a .tmp that recovery ignores.
  std::string content = header;
  content += records;
  if (auto written = File::create(tmp, content, "compact.tmp_", false);
      !written.is_ok()) {
    return written.status();
  }

  // 2. Promote it atomically. From this instant recovery reads both
  // generations and the owner dedups; before it, only the old one.
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const Status s = sys_error("cannot rename", tmp);
    ::unlink(tmp.c_str());
    return s;
  }
  crash_point("compact.", "renamed");
  Status s = fsync_dir(dir_);
  crash_point("compact.", "dir_synced");

  // 3. Only now retire the old generation. A crash mid-unlink leaves some
  // old segments next to the compacted one: duplicates, never loss.
  for (const std::size_t index : segments_) {
    ::unlink(segment_path(index).c_str());
    crash_point("compact.", "unlinked");
  }
  segments_ = {next};
  active_.close();
  if (s.is_ok()) s = fsync_dir(dir_);
  if (!s.is_ok()) return s;  // appends now fail, and the owner degrades
  auto reopened = File::open(path, content.size(), header);
  if (!reopened.is_ok()) return reopened.status();
  active_ = std::move(reopened).value();
  return Status::ok();
}

void set_crash_hook(void (*hook)(const char* point)) { g_crash_hook = hook; }

}  // namespace prose::record_log
