// Wire protocol for the dpserved fault-analysis service.
//
// A connection carries a stream of frames in each direction. One frame =
// a 4-byte magic "dps1", a 4-byte little-endian payload length, then
// exactly that many bytes of UTF-8 JSON. The magic makes a stray HTTP
// probe or an endianness bug fail loudly at the first frame instead of
// desynchronizing the stream; the length prefix bounds every read before
// any parsing happens (a frame larger than the configured cap is
// rejected without allocating it).
//
// Requests are JSON objects with a string "type" and an optional integer
// "id" the server echoes back, so a client may keep several requests in
// flight on one connection and correlate out-of-order responses.
// Responses always carry "ok" (bool); failures add
// {"error": {"code": <symbol>, "message": <text>}} where code is one of
// bad_request / queue_full / deadline_exceeded / shutting_down /
// internal. queue_full and deadline_exceeded are the admission-control
// backpressure signals: the request was NOT executed and may be retried.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "obs/json.hpp"

namespace dp::serve {

inline constexpr char kFrameMagic[4] = {'d', 'p', 's', '1'};
inline constexpr std::size_t kFrameHeaderBytes = 8;
/// Default cap on one frame's payload. Large enough for a full c1908
/// profile document, small enough that a hostile length field cannot
/// balloon the resident set.
inline constexpr std::uint32_t kDefaultMaxFrameBytes = 64u << 20;

/// Structured failure classes a response's error.code may carry.
enum class ErrorCode {
  BadRequest,        ///< malformed JSON / unknown type / bad option value
  QueueFull,         ///< admission queue at capacity; retry after backoff
  DeadlineExceeded,  ///< deadline passed while the request sat queued
  ShuttingDown,      ///< server draining; no new work admitted
  Internal,          ///< engine threw; message carries the what()
};

/// The wire symbol for `code` ("bad_request", "queue_full", ...).
const char* to_string(ErrorCode code);

/// Outcome of read_frame. Eof is a clean close before any header byte --
/// the normal end of a connection, not an error.
enum class ReadStatus { Ok, Eof, Error };

/// Writes one frame (header + payload, one gather write) to `fd`,
/// looping over short writes and EINTR. Returns false on any I/O error
/// (error filled).
bool write_frame(int fd, std::string_view payload, std::string* error);

/// Reads one frame's payload from `fd`. Returns Error (error filled) on
/// bad magic, a length above `max_payload`, or a stream truncated inside
/// a frame; Eof only on a clean close at a frame boundary.
ReadStatus read_frame(int fd, std::string* payload,
                      std::uint32_t max_payload, std::string* error);

/// {"id": id, "ok": false, "error": {"code","message"}}
obs::JsonValue make_error_response(long long id, ErrorCode code,
                                   const std::string& message);

/// {"id": id, "ok": true, "type": type} -- callers add payload fields.
obs::JsonValue make_ok_response(long long id, const std::string& type);

}  // namespace dp::serve
