#include "src/util/binary.h"

namespace firehose {

void AppendVarint(std::string* out, uint64_t value) {
  while (value >= 0x80) {
    out->push_back(static_cast<char>((value & 0x7F) | 0x80));
    value >>= 7;
  }
  out->push_back(static_cast<char>(value));
}

void BinaryWriter::PutVarint(uint64_t value) { AppendVarint(&buffer_, value); }

void BinaryWriter::PutSignedVarint(int64_t value) {
  // Zigzag: small magnitudes of either sign become small varints.
  PutVarint((static_cast<uint64_t>(value) << 1) ^
            static_cast<uint64_t>(value >> 63));
}

void BinaryWriter::PutString(std::string_view value) {
  PutVarint(value.size());
  buffer_.append(value.data(), value.size());
}

void BinaryWriter::PutFixed64(uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    buffer_.push_back(static_cast<char>((value >> (8 * i)) & 0xFF));
  }
}

bool BinaryReader::GetU8(uint8_t* value) {
  if (!ok_ || pos_ >= data_.size()) return ok_ = false;
  *value = static_cast<uint8_t>(data_[pos_++]);
  return true;
}

bool BinaryReader::GetVarint(uint64_t* value) {
  if (!ok_) return false;
  uint64_t result = 0;
  int shift = 0;
  size_t pos = pos_;
  while (pos < data_.size() && shift < 64) {
    const uint8_t byte = static_cast<uint8_t>(data_[pos++]);
    result |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      pos_ = pos;
      *value = result;
      return true;
    }
    shift += 7;
  }
  return ok_ = false;
}

bool BinaryReader::GetSignedVarint(int64_t* value) {
  uint64_t raw;
  if (!GetVarint(&raw)) return false;
  *value = static_cast<int64_t>((raw >> 1) ^ (~(raw & 1) + 1));
  return true;
}

bool BinaryReader::GetString(std::string* value) {
  std::string_view view;
  if (!GetStringView(&view)) return false;
  value->assign(view);
  return true;
}

bool BinaryReader::GetStringView(std::string_view* value) {
  uint64_t length;
  if (!GetVarint(&length)) return false;
  if (length > data_.size() - pos_) return ok_ = false;
  *value = data_.substr(pos_, length);
  pos_ += length;
  return true;
}

bool BinaryReader::GetFixed64(uint64_t* value) {
  if (!ok_ || data_.size() - pos_ < 8) return ok_ = false;
  uint64_t result = 0;
  for (int i = 0; i < 8; ++i) {
    result |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
              << (8 * i);
  }
  pos_ += 8;
  *value = result;
  return true;
}

}  // namespace firehose
