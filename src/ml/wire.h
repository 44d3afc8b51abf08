// Big-endian cursors shared by the graph, checkpoint and FlatModel formats
// (internal to src/ml). The bytes a Reader parses come from outside the
// enclave: every count and every element total is checked against the bytes
// still unread before anything is sized from it, and every failure is a
// std::runtime_error prefixed with the format's origin ("FlatModel: ...").
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "crypto/bytes.h"
#include "ml/tensor.h"

namespace stf::ml::wire {

class Writer {
 public:
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u32(std::uint32_t v) {
    std::uint8_t b[4];
    crypto::store_be32(b, v);
    bytes(crypto::BytesView(b, 4));
  }
  void i64(std::int64_t v) {
    std::uint8_t b[8];
    crypto::store_be64(b, static_cast<std::uint64_t>(v));
    bytes(crypto::BytesView(b, 8));
  }
  void f32(float v) {
    std::uint32_t bits;
    std::memcpy(&bits, &v, 4);
    u32(bits);
  }
  void bytes(crypto::BytesView b) { crypto::append(out_, b); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes(crypto::to_bytes(s));
  }
  void shape(const Shape& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    for (const auto d : s) i64(d);
  }
  void tensor(const Tensor& t) {
    shape(t.shape());
    bytes(crypto::BytesView(reinterpret_cast<const std::uint8_t*>(t.data()),
                            t.byte_size()));
  }
  crypto::Bytes take() { return std::move(out_); }

 private:
  crypto::Bytes out_;
};

class Reader {
 public:
  Reader(crypto::BytesView data, const char* origin)
      : data_(data), origin_(origin) {}

  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error(std::string(origin_) + ": " + what);
  }

  /// `count` elements of `size` bytes each, which must fit in what is left.
  crypto::BytesView bytes(std::uint64_t count, std::size_t size = 1) {
    if (!fits(count, size)) fail("truncated input");
    const crypto::BytesView out = data_.subspan(cursor_, count * size);
    cursor_ += out.size();
    return out;
  }
  std::uint8_t u8() { return bytes(1)[0]; }
  std::uint32_t u32() { return crypto::load_be32(bytes(4).data()); }
  std::int64_t i64() {
    return static_cast<std::int64_t>(crypto::load_be64(bytes(8).data()));
  }
  float f32() {
    const std::uint32_t bits = u32();
    float v;
    std::memcpy(&v, &bits, 4);
    return v;
  }
  /// A u32 count of records of at least `min_bytes` each, bounded the same
  /// way as bytes().
  std::uint32_t count(std::size_t min_bytes) {
    const std::uint32_t n = u32();
    if (!fits(n, min_bytes)) fail("truncated input");
    return n;
  }
  std::string str() {
    const crypto::BytesView b = bytes(u32());
    return {reinterpret_cast<const char*>(b.data()), b.size()};
  }
  /// Up to 16 dims of any value (a Reshape target's -1 means "infer").
  Shape shape() {
    const std::uint32_t rank = u32();
    if (rank > 16) fail("implausible rank");
    Shape s(rank);
    for (auto& d : s) d = i64();
    return s;
  }
  /// A tensor's dims: non-negative, and no more elements of `elem_size`
  /// bytes than are left to hold them.
  Shape dims(std::size_t elem_size) {
    Shape s = shape();
    const std::uint64_t max_elements = (data_.size() - cursor_) / elem_size;
    std::uint64_t n = 1;  // saturates at max_elements + 1
    for (const auto d : s) {
      if (d < 0) fail("negative dimension");
      const auto dim = static_cast<std::uint64_t>(d);
      n = dim != 0 && n > max_elements / dim ? max_elements + 1 : n * dim;
    }
    if (n > max_elements) fail("truncated input");
    return s;
  }
  Tensor tensor() {
    Shape s = dims(sizeof(float));
    const crypto::BytesView raw =
        bytes(static_cast<std::uint64_t>(num_elements(s)), sizeof(float));
    std::vector<float> values(raw.size() / sizeof(float));
    // An empty tensor's vector has no storage: memcpy takes no null.
    if (!raw.empty()) std::memcpy(values.data(), raw.data(), raw.size());
    return Tensor(std::move(s), std::move(values));
  }
  [[nodiscard]] bool done() const { return cursor_ == data_.size(); }

 private:
  [[nodiscard]] bool fits(std::uint64_t count, std::size_t size) const {
    return count <= (data_.size() - cursor_) / size;
  }

  crypto::BytesView data_;
  const char* origin_;
  std::size_t cursor_ = 0;
};

}  // namespace stf::ml::wire
