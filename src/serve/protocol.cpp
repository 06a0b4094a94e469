#include "serve/protocol.hpp"

#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace dp::serve {

namespace {

/// sendmsg(2) every byte of `iov`, retrying short writes and EINTR.
/// MSG_NOSIGNAL turns a peer disappearing mid-write into EPIPE instead
/// of a process-killing SIGPIPE -- every frame fd is a socket.
bool write_all(int fd, iovec* iov, std::size_t count, std::string* error) {
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = count;
  while (msg.msg_iovlen > 0) {
    const ssize_t w = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (error) *error = std::string("write: ") + std::strerror(errno);
      return false;
    }
    // Skip what was sent: whole buffers first, then into the next one.
    std::size_t sent = static_cast<std::size_t>(w);
    while (msg.msg_iovlen > 0 && sent >= msg.msg_iov->iov_len) {
      sent -= msg.msg_iov->iov_len;
      ++msg.msg_iov;
      --msg.msg_iovlen;
    }
    if (msg.msg_iovlen > 0) {
      msg.msg_iov->iov_base = static_cast<char*>(msg.msg_iov->iov_base) + sent;
      msg.msg_iov->iov_len -= sent;
    }
  }
  return true;
}

/// read(2) exactly n bytes. 1 = got them, 0 = clean EOF before the first
/// byte, -1 = error or EOF mid-buffer (truncated frame).
int read_all(int fd, void* data, std::size_t n, std::string* error) {
  char* p = static_cast<char*>(data);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, p + got, n - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (error) *error = std::string("read: ") + std::strerror(errno);
      return -1;
    }
    if (r == 0) {
      if (got == 0) return 0;
      if (error) *error = "connection closed mid-frame";
      return -1;
    }
    got += static_cast<std::size_t>(r);
  }
  return 1;
}

}  // namespace

const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::BadRequest: return "bad_request";
    case ErrorCode::QueueFull: return "queue_full";
    case ErrorCode::DeadlineExceeded: return "deadline_exceeded";
    case ErrorCode::ShuttingDown: return "shutting_down";
    case ErrorCode::Internal: return "internal";
  }
  return "internal";
}

bool write_frame(int fd, std::string_view payload, std::string* error) {
  if (payload.size() > 0xffffffffu) {
    if (error) *error = "frame payload exceeds protocol limit";
    return false;
  }
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  char header[kFrameHeaderBytes];
  std::memcpy(header, kFrameMagic, 4);
  header[4] = static_cast<char>(len & 0xff);
  header[5] = static_cast<char>((len >> 8) & 0xff);
  header[6] = static_cast<char>((len >> 16) & 0xff);
  header[7] = static_cast<char>((len >> 24) & 0xff);
  // Header and payload leave in one gather write, so the payload is
  // never copied behind the header. Concurrent writers of one fd still
  // need the caller's lock (the server's per-connection write mutex):
  // a short write resumes in a second call.
  iovec iov[2] = {{header, kFrameHeaderBytes},
                  {const_cast<char*>(payload.data()), payload.size()}};
  return write_all(fd, iov, 2, error);
}

ReadStatus read_frame(int fd, std::string* payload,
                      std::uint32_t max_payload, std::string* error) {
  char header[kFrameHeaderBytes];
  const int h = read_all(fd, header, kFrameHeaderBytes, error);
  if (h == 0) return ReadStatus::Eof;
  if (h < 0) return ReadStatus::Error;
  if (std::memcmp(header, kFrameMagic, 4) != 0) {
    if (error) *error = "bad frame magic (not a dps1 stream)";
    return ReadStatus::Error;
  }
  const std::uint32_t len =
      static_cast<std::uint32_t>(static_cast<unsigned char>(header[4])) |
      (static_cast<std::uint32_t>(static_cast<unsigned char>(header[5])) << 8) |
      (static_cast<std::uint32_t>(static_cast<unsigned char>(header[6]))
       << 16) |
      (static_cast<std::uint32_t>(static_cast<unsigned char>(header[7]))
       << 24);
  if (len > max_payload) {
    if (error) {
      *error = "frame of " + std::to_string(len) +
               " bytes exceeds the configured cap of " +
               std::to_string(max_payload);
    }
    return ReadStatus::Error;
  }
  payload->resize(len);
  if (len > 0 && read_all(fd, payload->data(), len, error) <= 0) {
    return ReadStatus::Error;
  }
  return ReadStatus::Ok;
}

obs::JsonValue make_error_response(long long id, ErrorCode code,
                                   const std::string& message) {
  obs::JsonValue resp = obs::JsonValue::object();
  resp["id"] = id;
  resp["ok"] = false;
  obs::JsonValue err = obs::JsonValue::object();
  err["code"] = to_string(code);
  err["message"] = message;
  resp["error"] = std::move(err);
  return resp;
}

obs::JsonValue make_ok_response(long long id, const std::string& type) {
  obs::JsonValue resp = obs::JsonValue::object();
  resp["id"] = id;
  resp["ok"] = true;
  resp["type"] = type;
  return resp;
}

}  // namespace dp::serve
