#ifndef FIREHOSE_UTIL_BINARY_H_
#define FIREHOSE_UTIL_BINARY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace firehose {

/// Appends `value` to `*out` as an unsigned LEB128 varint, the encoding
/// of BinaryWriter::PutVarint.
void AppendVarint(std::string* out, uint64_t value);

/// Little append-only binary encoder used by the persistence and
/// durability layers. Integers are LEB128 varints, so small ids and
/// deltas stay small; strings and blobs are length-prefixed.
///
/// Lives in src/util (not src/io) because it is a pure byte codec: the
/// stream and core layers serialize state with it without depending on
/// the file-touching io layer above them.
class BinaryWriter {
 public:
  BinaryWriter() = default;

  void PutU8(uint8_t value) { buffer_.push_back(static_cast<char>(value)); }

  /// Unsigned LEB128.
  void PutVarint(uint64_t value);

  /// Zigzag-encoded signed varint.
  void PutSignedVarint(int64_t value);

  /// Length-prefixed bytes.
  void PutString(std::string_view value);

  /// Fixed 64-bit little-endian (for hashes, where varint saves nothing).
  void PutFixed64(uint64_t value);

  const std::string& buffer() const { return buffer_; }
  std::string Release() { return std::move(buffer_); }
  size_t size() const { return buffer_.size(); }

 private:
  std::string buffer_;
};

/// Decoder matching BinaryWriter. All getters return false on truncated
/// or malformed input and leave the output untouched; `ok()` latches the
/// first failure so callers may decode a run of fields and check once.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  bool GetU8(uint8_t* value);
  bool GetVarint(uint64_t* value);
  bool GetSignedVarint(int64_t* value);
  bool GetString(std::string* value);
  /// GetString without the copy: `*value` views the reader's input, so
  /// it is valid only while that input is.
  bool GetStringView(std::string_view* value);
  bool GetFixed64(uint64_t* value);

  /// True until the first failed Get.
  bool ok() const { return ok_; }
  /// True when every byte has been consumed.
  bool AtEnd() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace firehose

#endif  // FIREHOSE_UTIL_BINARY_H_
