#include "relational/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/fault_injector.h"
#include "common/strings.h"

namespace medsync::relational {

namespace {

}  // namespace

Result<Wal> Wal::Open(std::string path, std::vector<WalRecord>* recovered,
                      Options options) {
  if (recovered) recovered->clear();

  uint64_t next_lsn = 1;
  uint64_t recovered_count = 0;
  long valid_end = 0;
  bool needs_truncate = false;
  Status corruption;  // non-OK when a complete record fails validation

  // Recover: scan existing content line by line. Only a torn tail — a final
  // record with no '\n' terminator, which is exactly what an interrupted
  // append leaves behind (the newline is the last byte written) — may be
  // truncated away. A COMPLETE line that fails any validity check is bit rot
  // or tampering, not a crash artifact; silently cutting the log there would
  // also drop every valid record after it, so it is a hard Corruption error
  // no matter where in the file it sits.
  FILE* in = std::fopen(path.c_str(), "rb");
  if (in != nullptr) {
    std::string line;
    int c;
    uint64_t line_no = 0;
    auto corrupt = [&](std::string_view what) {
      corruption = Status::Corruption(
          StrCat("WAL '", path, "' record ", line_no, ": ", what));
    };
    while (true) {
      line.clear();
      ++line_no;
      while ((c = std::fgetc(in)) != EOF && c != '\n') {
        line.push_back(static_cast<char>(c));
      }
      bool has_newline = (c == '\n');
      if (line.empty() && !has_newline) break;  // clean EOF
      if (!has_newline) {
        // Torn tail: record without terminator.
        needs_truncate = true;
        break;
      }
      // Parse "<crc-hex> <len> <body>" where body is "<lsn> <payload>".
      size_t sp1 = line.find(' ');
      size_t sp2 = (sp1 == std::string::npos) ? std::string::npos
                                              : line.find(' ', sp1 + 1);
      if (sp1 == std::string::npos || sp2 == std::string::npos) {
        corrupt("malformed header");
        break;
      }
      std::string crc_hex = line.substr(0, sp1);
      std::string len_str = line.substr(sp1 + 1, sp2 - sp1 - 1);
      std::string body = line.substr(sp2 + 1);
      char* end = nullptr;
      unsigned long long expect_len = std::strtoull(len_str.c_str(), &end, 10);
      if (end != len_str.c_str() + len_str.size() ||
          expect_len != body.size()) {
        corrupt("length mismatch");
        break;
      }
      char crc_buf[16];
      std::snprintf(crc_buf, sizeof(crc_buf), "%08x", Crc32(body));
      if (crc_hex != crc_buf) {
        corrupt("checksum mismatch");
        break;
      }
      // A JSON payload never starts with a digit, so a record whose body
      // does not open with "<digits> " has no LSN and is corrupt.
      const size_t body_sp = body.find(' ');
      if (body.empty() || body[0] < '0' || body[0] > '9' ||
          body_sp == std::string::npos) {
        corrupt("missing LSN");
        break;
      }
      std::string lsn_str = body.substr(0, body_sp);
      end = nullptr;
      const uint64_t lsn = std::strtoull(lsn_str.c_str(), &end, 10);
      if (end != lsn_str.c_str() + lsn_str.size()) {
        corrupt("unparseable LSN");
        break;
      }
      std::string payload = body.substr(body_sp + 1);
      if (lsn < next_lsn) {
        // LSNs must be strictly increasing; a regression means corruption.
        corrupt("LSN regression");
        break;
      }
      auto parsed = Json::Parse(payload);
      if (!parsed.ok()) {
        corrupt("unparseable payload");
        break;
      }
      if (recovered) {
        recovered->push_back(WalRecord{lsn, std::move(parsed).value()});
      }
      next_lsn = lsn + 1;
      ++recovered_count;
      valid_end = std::ftell(in);
    }
    std::fclose(in);
  }
  if (!corruption.ok()) return corruption;

  int flags = O_WRONLY | O_CREAT | (needs_truncate ? 0 : O_APPEND);
  int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) {
    return Status::Unavailable(
        StrCat("cannot open WAL '", path, "': ", std::strerror(errno)));
  }
  if (needs_truncate) {
    if (::ftruncate(fd, valid_end) != 0) {
      ::close(fd);
      return Status::Unavailable(
          StrCat("cannot truncate WAL '", path, "': ", std::strerror(errno)));
    }
    if (::lseek(fd, 0, SEEK_END) < 0) {
      ::close(fd);
      return Status::Unavailable(StrCat("cannot seek WAL '", path, "'"));
    }
  }

  Wal wal;
  wal.path_ = std::move(path);
  wal.fd_ = fd;
  wal.next_lsn_ = next_lsn;
  wal.options_ = options;
  wal.stats_.recovered_records = recovered_count;
  wal.stats_.truncations = needs_truncate ? 1 : 0;
  return wal;
}

Wal::Wal(Wal&& other) noexcept
    : path_(std::move(other.path_)),
      fd_(other.fd_),
      next_lsn_(other.next_lsn_),
      options_(other.options_),
      stats_(other.stats_),
      appends_counter_(other.appends_counter_),
      append_bytes_counter_(other.append_bytes_counter_),
      syncs_counter_(other.syncs_counter_),
      resets_counter_(other.resets_counter_) {
  other.fd_ = -1;
}

Wal& Wal::operator=(Wal&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    path_ = std::move(other.path_);
    fd_ = other.fd_;
    next_lsn_ = other.next_lsn_;
    options_ = other.options_;
    stats_ = other.stats_;
    appends_counter_ = other.appends_counter_;
    append_bytes_counter_ = other.append_bytes_counter_;
    syncs_counter_ = other.syncs_counter_;
    resets_counter_ = other.resets_counter_;
    other.fd_ = -1;
  }
  return *this;
}

Wal::~Wal() {
  if (fd_ >= 0) ::close(fd_);
}

Result<uint64_t> Wal::Append(const Json& payload) {
  if (fd_ < 0) return Status::FailedPrecondition("WAL not open");
  MEDSYNC_RETURN_IF_ERROR(CheckFaultPoint("wal.append.before_write"));
  std::string body = StrCat(next_lsn_, " ", payload.Dump());
  char header[32];
  std::snprintf(header, sizeof(header), "%08x %zu ", Crc32(body), body.size());
  std::string record = StrCat(header, body, "\n");
  size_t to_write = record.size();
  size_t keep = 0;
  const bool torn = CheckTornWrite("wal.append.write", &keep);
  if (torn && keep < to_write) to_write = keep;
  const char* data = record.data();
  size_t remaining = to_write;
  while (remaining > 0) {
    ssize_t n = ::write(fd_, data, remaining);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(
          StrCat("WAL write failed: ", std::strerror(errno)));
    }
    data += n;
    remaining -= static_cast<size_t>(n);
  }
  if (torn) {
    return Status::Unavailable(
        StrCat("fault injected: WAL append torn after ", to_write, " bytes"));
  }
  ++stats_.appends;
  stats_.append_bytes += record.size();
  metrics::Inc(appends_counter_);
  metrics::Inc(append_bytes_counter_, record.size());
  if (options_.sync_every_append) {
    MEDSYNC_RETURN_IF_ERROR(Sync());
  }
  // The record is durable here; a kill at this point models a process that
  // died between logging a mutation and applying it.
  uint64_t lsn = next_lsn_++;
  MEDSYNC_RETURN_IF_ERROR(CheckFaultPoint("wal.append.after_write"));
  return lsn;
}

Status Wal::Sync() {
  if (fd_ < 0) return Status::FailedPrecondition("WAL not open");
  if (::fdatasync(fd_) != 0) {
    return Status::Unavailable(
        StrCat("WAL sync failed: ", std::strerror(errno)));
  }
  ++stats_.syncs;
  metrics::Inc(syncs_counter_);
  return Status::OK();
}

Status Wal::Reset() {
  if (fd_ < 0) return Status::FailedPrecondition("WAL not open");
  MEDSYNC_RETURN_IF_ERROR(CheckFaultPoint("wal.reset.before"));
  if (::ftruncate(fd_, 0) != 0 || ::lseek(fd_, 0, SEEK_SET) < 0) {
    return Status::Unavailable(
        StrCat("WAL reset failed: ", std::strerror(errno)));
  }
  // next_lsn_ deliberately survives the truncation: LSNs are a monotonic
  // history position, not a file offset, so a checkpoint's "covers through
  // LSN K" claim stays true for every record appended afterwards.
  ++stats_.resets;
  metrics::Inc(resets_counter_);
  if (options_.sync_every_append) {
    // The truncation itself must be durable, or a crash could resurrect
    // pre-checkpoint records on top of the fresh snapshot.
    MEDSYNC_RETURN_IF_ERROR(Sync());
  }
  return Status::OK();
}

void Wal::set_metrics(metrics::MetricsRegistry* registry) {
  if (registry == nullptr) {
    appends_counter_ = append_bytes_counter_ = syncs_counter_ =
        resets_counter_ = nullptr;
    return;
  }
  appends_counter_ = registry->GetCounter("wal.appends");
  append_bytes_counter_ = registry->GetCounter("wal.append_bytes");
  syncs_counter_ = registry->GetCounter("wal.syncs");
  resets_counter_ = registry->GetCounter("wal.resets");
  // Recovery happened inside Open, before a registry could be attached;
  // flush those one-time counts now.
  registry->GetCounter("wal.recoveries")->Increment();
  registry->GetCounter("wal.recovered_records")
      ->Increment(stats_.recovered_records);
  registry->GetCounter("wal.truncations")->Increment(stats_.truncations);
}

}  // namespace medsync::relational
