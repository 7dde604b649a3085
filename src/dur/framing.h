#ifndef FIREHOSE_DUR_FRAMING_H_
#define FIREHOSE_DUR_FRAMING_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "src/util/crc32c.h"
#include "src/util/thread_annotations.h"

namespace firehose {
namespace dur {

/// The one frame layout shared by WAL records, WAL segment headers and
/// checkpoint files:
///
///   u32le payload_length | u32le CRC32C(payload) | payload bytes
///
/// A frame either parses completely with a matching checksum or it is
/// rejected; there is no partial-credit path, which is what lets recovery
/// treat "torn tail" and "bit rot" uniformly.

inline constexpr size_t kFrameHeaderBytes = 8;

/// Upper bound on a single payload. Anything larger is a corrupt length
/// field, not a real frame — parsing rejects it before trusting the size.
inline constexpr uint32_t kMaxFramePayloadBytes = 1u << 30;

inline void PutU32Le(std::string* out, uint32_t value) {
  out->push_back(static_cast<char>(value & 0xFF));
  out->push_back(static_cast<char>((value >> 8) & 0xFF));
  out->push_back(static_cast<char>((value >> 16) & 0xFF));
  out->push_back(static_cast<char>((value >> 24) & 0xFF));
}

inline uint32_t GetU32Le(std::string_view data, size_t offset) {
  return static_cast<uint32_t>(static_cast<unsigned char>(data[offset])) |
         static_cast<uint32_t>(static_cast<unsigned char>(data[offset + 1]))
             << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(data[offset + 2]))
             << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(data[offset + 3]))
             << 24;
}

inline void AppendFrame(std::string* out, std::string_view payload) {
  PutU32Le(out, static_cast<uint32_t>(payload.size()));
  PutU32Le(out, Crc32c(payload));
  out->append(payload);
}

/// Completes a frame built in place: `*frame` holds kFrameHeaderBytes of
/// room, then the payload, and the room becomes the header AppendFrame
/// would write. A writer that reuses one buffer per frame copies no
/// payload and allocates nothing once the buffer has grown.
inline void FillFrameHeader(std::string* frame) {
  const std::string_view payload =
      std::string_view(*frame).substr(kFrameHeaderBytes);
  std::string header;  // 8 bytes: held inline, never on the heap
  PutU32Le(&header, static_cast<uint32_t>(payload.size()));
  PutU32Le(&header, Crc32c(payload));
  frame->replace(0, kFrameHeaderBytes, header);
}

enum class FrameStatus {
  kOk,         ///< payload parsed and checksum matched
  kTruncated,  ///< ran off the end of the buffer (torn tail)
  kCorrupt,    ///< absurd length or checksum mismatch
};

/// Parses the frame starting at `offset`. On kOk, `*payload` views into
/// `data` and `*next_offset` is the offset of the following frame.
inline FrameStatus ParseFrame(std::string_view data, size_t offset,
                              std::string_view* payload,
                              size_t* next_offset) FIREHOSE_TAINT_SOURCE {
  if (offset > data.size() || data.size() - offset < kFrameHeaderBytes) {
    return FrameStatus::kTruncated;
  }
  const uint32_t length = GetU32Le(data, offset);
  const uint32_t expected_crc = GetU32Le(data, offset + 4);
  if (length > kMaxFramePayloadBytes) return FrameStatus::kCorrupt;
  if (data.size() - offset - kFrameHeaderBytes < length) {
    return FrameStatus::kTruncated;
  }
  const std::string_view body = data.substr(offset + kFrameHeaderBytes, length);
  if (Crc32c(body) != expected_crc) return FrameStatus::kCorrupt;
  *payload = body;
  *next_offset = offset + kFrameHeaderBytes + length;
  return FrameStatus::kOk;
}

}  // namespace dur
}  // namespace firehose

#endif  // FIREHOSE_DUR_FRAMING_H_
