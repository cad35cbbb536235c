// ADT-driven object codec: the serialization half of the offload.
//
// The paper offloads request deserialization and notes that response
// serialization "can be implemented similarly in our design" (§III.A).
// This module supplies the two missing pieces:
//
//   * ObjectSerializer — walks an in-memory object *described by the ADT*
//     (no compiled-in classes) and emits proto3 wire bytes. On the DPU it
//     turns an in-place response object back into the bytes the xRPC
//     client expects; it is also the round-trip oracle for tests.
//
//   * LayoutBuilder — constructs such objects field by field into an
//     arena (the write-side mirror of LayoutView): how a host handler
//     builds an in-place response without any generated class.
#pragma once

#include <cstddef>
#include <cstring>

#include "adt/adt.hpp"
#include "adt/arena_deserializer.hpp"
#include "adt/codec_options.hpp"
#include "arena/arena.hpp"
#include "arena/string_craft.hpp"
#include "common/bytes.hpp"
#include "common/endian.hpp"
#include "common/status.hpp"

namespace dpurpc::adt {

class LayoutBuilder;

namespace detail {
/// In-memory shape of a repeated field's storage: RepeatedField<T> /
/// RepeatedPtrField<T> (pinned by the static_asserts in repeated_field.hpp).
struct RepHeader {
  void* data;
  uint32_t size;
  uint32_t capacity;
};
static_assert(sizeof(RepHeader) == 16);
}  // namespace detail

/// Typed handle to a serializable object: the class index bound to the
/// instance base. The serializer entry points take this instead of a raw
/// (index, pointer) pair, so code coming from a LayoutBuilder or
/// LayoutView cannot pass a mismatched index — the conversion reads both
/// halves from the same source.
struct ObjectRef {
  uint32_t class_index = 0;
  const void* base = nullptr;

  constexpr ObjectRef() = default;
  constexpr ObjectRef(uint32_t ci, const void* b) noexcept
      : class_index(ci), base(b) {}
  /// The object under construction in `b` (implicit: the builder *is* the
  /// object for serialization purposes).
  ObjectRef(const LayoutBuilder& b) noexcept;  // NOLINT(google-explicit-constructor)
  ObjectRef(const LayoutView& v) noexcept      // NOLINT(google-explicit-constructor)
      : class_index(v.class_index()), base(v.object()) {}
};

class ObjectSerializer {
 public:
  /// `adt` must outlive the serializer. With use_serialize_plan set (the
  /// default) the constructor captures the ADT's compiled-plan snapshot
  /// (Adt::plans()) and serialization runs the single-pass planned path;
  /// otherwise the interpretive field-table walk — the ablation baseline —
  /// is used. Both produce bit-identical bytes (tests/serialize_plan_test).
  explicit ObjectSerializer(const Adt* adt, CodecOptions options = {})
      : adt_(adt),
        flavor_(static_cast<arena::StdLibFlavor>(adt->fingerprint().string_flavor)),
        options_(options),
        plans_(options.use_serialize_plan ? adt->plans() : nullptr) {}

  /// Serialize the object `ref` points at (pointers valid in this address
  /// space) to proto3 wire format, appending to `out`. Fields are emitted
  /// in field-number order with proto3 presence semantics (has-bit set
  /// AND value != default), which makes the output byte-identical to the
  /// reference WireCodec.
  Status serialize(ObjectRef ref, Bytes& out) const;

  /// Serialized size without emitting (block sizing).
  StatusOr<size_t> byte_size(ObjectRef ref) const;

 private:
  Status serialize_impl(const ClassEntry& cls, const std::byte* base, Bytes& out,
                        int depth) const;
  StatusOr<size_t> size_impl(const ClassEntry& cls, const std::byte* base,
                             int depth) const;

  const Adt* adt_;
  arena::StdLibFlavor flavor_;
  CodecOptions options_;
  std::shared_ptr<const PlanSet> plans_;  ///< null when serialize plans disabled
};

/// Write-side access to a synthesized-layout object under construction in
/// an arena. Allocates the instance (defaults copied in) on creation.
class LayoutBuilder {
 public:
  /// Allocate and default-initialize an instance of `class_index` in
  /// `arena`. Stored pointers are local; ArenaDeserializer::copy_relocated
  /// moves the finished object into a send block and the peer's space.
  static StatusOr<LayoutBuilder> create(const Adt* adt, uint32_t class_index,
                                        arena::Arena* arena);

  /// The constructed object's local address.
  void* object() const noexcept { return base_; }
  uint32_t class_index() const noexcept { return class_index_; }

  // Singular setters (field must exist and have a matching kind).
  Status set_int64(uint32_t field_number, int64_t v);
  Status set_uint64(uint32_t field_number, uint64_t v);
  Status set_bool(uint32_t field_number, bool v);
  Status set_float(uint32_t field_number, float v);
  Status set_double(uint32_t field_number, double v);
  Status set_string(uint32_t field_number, std::string_view v);

  /// Create (or return the existing) singular sub-message builder.
  StatusOr<LayoutBuilder> mutable_message(uint32_t field_number);

  // Repeated adders. A full array doubles, in place while it is the
  // arena's most recent allocation (Arena::try_extend), so a field
  // appended without interruption leaves no outgrown copies behind.

  /// Append `raw_value` to a repeated scalar field. Inline fast path for
  /// repeat appends: the checked path remembers the last field it accepted
  /// (number, offset, element size), and a repeat call with room just
  /// stores the value and bumps `size`. The array's data/size/capacity are
  /// re-read from the object on every call, never cached: copies of this
  /// handle, or other handles from mutable_message, may append to or regrow
  /// the same array in between.
  Status add_scalar(uint32_t field_number, uint64_t raw_value) {
    if (field_number == hot_field_) {
      // Field-wise loads, each the width of its last store, so the size
      // written by the previous append forwards straight from the store
      // buffer (a whole-header load would stall on it).
      std::byte* header = base_ + hot_offset_;
      const auto size = load_le<uint32_t>(header + offsetof(detail::RepHeader, size));
      const auto cap = load_le<uint32_t>(header + offsetof(detail::RepHeader, capacity));
      if (size < cap) {
        const auto data = load_le<uint64_t>(header + offsetof(detail::RepHeader, data));
        store_scalar(reinterpret_cast<std::byte*>(data) +
                         static_cast<size_t>(size) * hot_elem_,
                     hot_elem_, raw_value);
        store_le(header + offsetof(detail::RepHeader, size), size + 1);
        return Status::ok();
      }
    }
    return add_scalar_checked(field_number, raw_value);
  }
  Status add_string(uint32_t field_number, std::string_view v);
  StatusOr<LayoutBuilder> add_message(uint32_t field_number);

  /// Read access to what has been built so far.
  LayoutView view() const noexcept { return LayoutView(adt_, class_index_, base_); }

 private:
  LayoutBuilder(const Adt* adt, uint32_t class_index, std::byte* base,
                arena::Arena* arena)
      : adt_(adt), class_index_(class_index), base_(base), arena_(arena) {}

  StatusOr<const FieldEntry*> field(uint32_t number, bool repeated) const;
  void set_has_bit(const FieldEntry& f);
  Status add_scalar_checked(uint32_t field_number, uint64_t raw_value);
  /// Reserve the next element of the repeated field whose header is at
  /// `header` (elements `elem` bytes wide), growing the array if full, and
  /// return the element's local address. The one growth path of all three
  /// repeated adders.
  StatusOr<std::byte*> append_slot(std::byte* header, uint32_t elem);

  static void store_scalar(std::byte* slot, uint32_t elem, uint64_t v) noexcept {
    if (elem == 1) {
      store_le(slot, static_cast<uint8_t>(v != 0 ? 1 : 0));
    } else if (elem == 4) {
      store_le(slot, static_cast<uint32_t>(v));
    } else {
      store_le(slot, v);
    }
  }

  const Adt* adt_;
  uint32_t class_index_;
  std::byte* base_;
  arena::Arena* arena_;
  // add_scalar's fast-path key; 0 is never a valid field number.
  uint32_t hot_field_ = 0;
  uint32_t hot_offset_ = 0;
  uint32_t hot_elem_ = 0;
};

inline ObjectRef::ObjectRef(const LayoutBuilder& b) noexcept
    : class_index(b.class_index()), base(b.object()) {}

}  // namespace dpurpc::adt
