#include "adt/object_codec.hpp"

#include <cstring>

#include "adt/serialize_plan.hpp"
#include "common/endian.hpp"
#include "metrics/metrics.hpp"
#include "wire/coded_stream.hpp"
#include "wire/varint.hpp"

namespace dpurpc::adt {

namespace {

using proto::FieldType;
using wire::WireType;

/// Process-wide serializer counters (default metrics registry), the
/// response-path mirror of the dpurpc_deser_* family.
struct SerCounters {
  metrics::Counter& plan_serializes;
  metrics::Counter& interp_serializes;
};

SerCounters& ser_counters() {
  static SerCounters c{
      metrics::default_counter("dpurpc_ser_plan_serializes_total",
                               "objects serialized through a compiled plan"),
      metrics::default_counter("dpurpc_ser_interp_serializes_total",
                               "objects serialized by the interpretive walk"),
  };
  return c;
}

using detail::RepHeader;

uint32_t scalar_elem_size(FieldType t) noexcept {
  switch (t) {
    case FieldType::kBool: return 1;
    case FieldType::kInt32:
    case FieldType::kUint32:
    case FieldType::kSint32:
    case FieldType::kFixed32:
    case FieldType::kSfixed32:
    case FieldType::kFloat:
    case FieldType::kEnum:
      return 4;
    default:
      return 8;
  }
}

/// Stored representation at `p` -> the u64 the varint encoder takes.
uint64_t varint_wire_value(FieldType t, const std::byte* p) noexcept {
  switch (t) {
    case FieldType::kBool:
      return *reinterpret_cast<const uint8_t*>(p) != 0 ? 1 : 0;
    case FieldType::kInt32:
    case FieldType::kEnum:
      return static_cast<uint64_t>(
          static_cast<int64_t>(static_cast<int32_t>(load_le<uint32_t>(p))));
    case FieldType::kSint32:
      return wire::zigzag_encode32(static_cast<int32_t>(load_le<uint32_t>(p)));
    case FieldType::kSint64:
      return wire::zigzag_encode64(static_cast<int64_t>(load_le<uint64_t>(p)));
    case FieldType::kUint32:
      return load_le<uint32_t>(p);
    case FieldType::kInt64:
    case FieldType::kUint64:
      return load_le<uint64_t>(p);
    default:
      return 0;
  }
}

bool scalar_is_zero(FieldType t, const std::byte* p) noexcept {
  // Bit-pattern zero is the proto3 default for every scalar (including
  // floats: -0.0 is emitted, matching protobuf semantics).
  return scalar_elem_size(t) == 1   ? *reinterpret_cast<const uint8_t*>(p) == 0
         : scalar_elem_size(t) == 4 ? load_le<uint32_t>(p) == 0
                                    : load_le<uint64_t>(p) == 0;
}

bool has_bit_set(const ClassEntry& cls, const std::byte* base, const FieldEntry& f) {
  if (f.has_bit < 0) return true;
  return (load_le<uint32_t>(base + cls.has_bits_offset) & (1u << f.has_bit)) != 0;
}

}  // namespace

Status ObjectSerializer::serialize(ObjectRef ref, Bytes& out) const {
  if (ref.class_index >= adt_->class_count()) {
    return Status(Code::kNotFound, "unknown ADT class index");
  }
  if (plans_ != nullptr &&
      plans_->serialize().for_class(ref.class_index) != nullptr) {
    ser_counters().plan_serializes.inc();
    return plans_->serialize().serialize(*adt_, ref.class_index, ref.base, flavor_,
                                         options_.max_recursion_depth, out);
  }
  ser_counters().interp_serializes.inc();
  return serialize_impl(adt_->class_at(ref.class_index),
                        static_cast<const std::byte*>(ref.base), out, 0);
}

StatusOr<size_t> ObjectSerializer::byte_size(ObjectRef ref) const {
  if (ref.class_index >= adt_->class_count()) {
    return Status(Code::kNotFound, "unknown ADT class index");
  }
  if (plans_ != nullptr &&
      plans_->serialize().for_class(ref.class_index) != nullptr) {
    return plans_->serialize().byte_size(*adt_, ref.class_index, ref.base, flavor_,
                                         options_.max_recursion_depth);
  }
  return size_impl(adt_->class_at(ref.class_index),
                   static_cast<const std::byte*>(ref.base), 0);
}

StatusOr<size_t> ObjectSerializer::size_impl(const ClassEntry& cls,
                                             const std::byte* base, int depth) const {
  if (depth > options_.max_recursion_depth) {
    return Status(Code::kInternal, "object nesting too deep");
  }
  size_t total = 0;
  for (const FieldEntry& f : cls.fields) {
    const std::byte* p = base + f.offset;
    uint32_t tag = wire::make_tag(f.number, proto::wire_type_for(f.type));
    size_t tag_size = wire::varint_size(tag);
    if (f.repeated) {
      RepHeader h;
      std::memcpy(&h, p, sizeof(h));
      if (h.size == 0) continue;
      if (proto::is_packable(f.type)) {
        size_t body = 0;
        switch (proto::wire_type_for(f.type)) {
          case WireType::kFixed32: body = h.size * 4ull; break;
          case WireType::kFixed64: body = h.size * 8ull; break;
          default: {
            const auto* data = static_cast<const std::byte*>(h.data);
            uint32_t elem = scalar_elem_size(f.type);
            for (uint32_t i = 0; i < h.size; ++i) {
              body += wire::varint_size(varint_wire_value(f.type, data + i * elem));
            }
            break;
          }
        }
        uint32_t ptag = wire::make_tag(f.number, WireType::kLengthDelimited);
        total += wire::varint_size(ptag) + wire::varint_size(body) + body;
      } else if (f.type == FieldType::kMessage) {
        const ClassEntry& child = adt_->class_at(f.child_class);
        auto* const* elems = static_cast<void* const*>(h.data);
        for (uint32_t i = 0; i < h.size; ++i) {
          auto body = size_impl(child, static_cast<const std::byte*>(elems[i]),
                                depth + 1);
          if (!body.is_ok()) return body.status();
          total += tag_size + wire::varint_size(*body) + *body;
        }
      } else {  // repeated string/bytes
        auto* const* elems = static_cast<void* const*>(h.data);
        for (uint32_t i = 0; i < h.size; ++i) {
          auto sv = arena::read_crafted_string(elems[i], flavor_);
          if (!sv.is_ok()) return sv.status();
          total += tag_size + wire::varint_size(sv->size()) + sv->size();
        }
      }
      continue;
    }
    if (!has_bit_set(cls, base, f)) continue;
    switch (f.type) {
      case FieldType::kString:
      case FieldType::kBytes: {
        auto sv = arena::read_crafted_string(p, flavor_);
        if (!sv.is_ok()) return sv.status();
        if (sv->empty()) continue;
        total += tag_size + wire::varint_size(sv->size()) + sv->size();
        break;
      }
      case FieldType::kMessage: {
        const auto* child = reinterpret_cast<const std::byte*>(load_le<uint64_t>(p));
        if (child == nullptr) continue;
        auto body = size_impl(adt_->class_at(f.child_class), child, depth + 1);
        if (!body.is_ok()) return body.status();
        total += tag_size + wire::varint_size(*body) + *body;
        break;
      }
      case FieldType::kFloat:
      case FieldType::kFixed32:
      case FieldType::kSfixed32:
        if (scalar_is_zero(f.type, p)) continue;
        total += tag_size + 4;
        break;
      case FieldType::kDouble:
      case FieldType::kFixed64:
      case FieldType::kSfixed64:
        if (scalar_is_zero(f.type, p)) continue;
        total += tag_size + 8;
        break;
      default:
        if (scalar_is_zero(f.type, p)) continue;
        total += tag_size + wire::varint_size(varint_wire_value(f.type, p));
        break;
    }
  }
  return total;
}

Status ObjectSerializer::serialize_impl(const ClassEntry& cls, const std::byte* base,
                                        Bytes& out, int depth) const {
  if (depth > options_.max_recursion_depth) {
    return Status(Code::kInternal, "object nesting too deep");
  }
  wire::Writer w(out);
  for (const FieldEntry& f : cls.fields) {
    const std::byte* p = base + f.offset;
    if (f.repeated) {
      RepHeader h;
      std::memcpy(&h, p, sizeof(h));
      if (h.size == 0) continue;
      if (proto::is_packable(f.type)) {
        size_t body = 0;
        const auto* data = static_cast<const std::byte*>(h.data);
        uint32_t elem = scalar_elem_size(f.type);
        switch (proto::wire_type_for(f.type)) {
          case WireType::kFixed32: body = h.size * 4ull; break;
          case WireType::kFixed64: body = h.size * 8ull; break;
          default:
            for (uint32_t i = 0; i < h.size; ++i) {
              body += wire::varint_size(varint_wire_value(f.type, data + i * elem));
            }
            break;
        }
        w.write_tag(f.number, WireType::kLengthDelimited);
        w.write_varint(body);
        for (uint32_t i = 0; i < h.size; ++i) {
          const std::byte* ep = data + i * elem;
          switch (proto::wire_type_for(f.type)) {
            case WireType::kFixed32: w.write_fixed32(load_le<uint32_t>(ep)); break;
            case WireType::kFixed64: w.write_fixed64(load_le<uint64_t>(ep)); break;
            default: w.write_varint(varint_wire_value(f.type, ep)); break;
          }
        }
      } else if (f.type == FieldType::kMessage) {
        const ClassEntry& child = adt_->class_at(f.child_class);
        auto* const* elems = static_cast<void* const*>(h.data);
        for (uint32_t i = 0; i < h.size; ++i) {
          const auto* eb = static_cast<const std::byte*>(elems[i]);
          auto body = size_impl(child, eb, depth + 1);
          if (!body.is_ok()) return body.status();
          w.write_tag(f.number, WireType::kLengthDelimited);
          w.write_varint(*body);
          DPURPC_RETURN_IF_ERROR(serialize_impl(child, eb, out, depth + 1));
        }
      } else {
        auto* const* elems = static_cast<void* const*>(h.data);
        for (uint32_t i = 0; i < h.size; ++i) {
          auto sv = arena::read_crafted_string(elems[i], flavor_);
          if (!sv.is_ok()) return sv.status();
          w.write_tag(f.number, WireType::kLengthDelimited);
          w.write_length_delimited(*sv);
        }
      }
      continue;
    }
    if (!has_bit_set(cls, base, f)) continue;
    switch (f.type) {
      case FieldType::kString:
      case FieldType::kBytes: {
        auto sv = arena::read_crafted_string(p, flavor_);
        if (!sv.is_ok()) return sv.status();
        if (sv->empty()) continue;
        w.write_tag(f.number, WireType::kLengthDelimited);
        w.write_length_delimited(*sv);
        break;
      }
      case FieldType::kMessage: {
        const auto* child = reinterpret_cast<const std::byte*>(load_le<uint64_t>(p));
        if (child == nullptr) continue;
        auto body = size_impl(adt_->class_at(f.child_class), child, depth + 1);
        if (!body.is_ok()) return body.status();
        w.write_tag(f.number, WireType::kLengthDelimited);
        w.write_varint(*body);
        DPURPC_RETURN_IF_ERROR(
            serialize_impl(adt_->class_at(f.child_class), child, out, depth + 1));
        break;
      }
      case FieldType::kFloat:
      case FieldType::kFixed32:
      case FieldType::kSfixed32:
        if (scalar_is_zero(f.type, p)) continue;
        w.write_tag(f.number, WireType::kFixed32);
        w.write_fixed32(load_le<uint32_t>(p));
        break;
      case FieldType::kDouble:
      case FieldType::kFixed64:
      case FieldType::kSfixed64:
        if (scalar_is_zero(f.type, p)) continue;
        w.write_tag(f.number, WireType::kFixed64);
        w.write_fixed64(load_le<uint64_t>(p));
        break;
      default:
        if (scalar_is_zero(f.type, p)) continue;
        w.write_tag(f.number, WireType::kVarint);
        w.write_varint(varint_wire_value(f.type, p));
        break;
    }
  }
  return Status::ok();
}

// ---------------------------------------------------------- LayoutBuilder

StatusOr<LayoutBuilder> LayoutBuilder::create(const Adt* adt, uint32_t class_index,
                                              arena::Arena* arena) {
  if (class_index >= adt->class_count()) {
    return Status(Code::kNotFound, "unknown ADT class index");
  }
  const ClassEntry& cls = adt->class_at(class_index);
  auto* base = static_cast<std::byte*>(arena->allocate(cls.size, cls.align));
  if (base == nullptr) {
    return Status(Code::kResourceExhausted, "arena full allocating instance");
  }
  std::memcpy(base, cls.default_bytes.data(), cls.size);
  return LayoutBuilder(adt, class_index, base, arena);
}

StatusOr<const FieldEntry*> LayoutBuilder::field(uint32_t number, bool repeated) const {
  const FieldEntry* f = adt_->class_at(class_index_).field_by_number(number);
  if (f == nullptr) return Status(Code::kNotFound, "no such field number");
  if (f->repeated != repeated) {
    return Status(Code::kInvalidArgument, repeated ? "field is not repeated"
                                                   : "field is repeated");
  }
  return f;
}

void LayoutBuilder::set_has_bit(const FieldEntry& f) {
  if (f.has_bit < 0) return;
  const ClassEntry& cls = adt_->class_at(class_index_);
  auto* word = reinterpret_cast<uint32_t*>(base_ + cls.has_bits_offset);
  *word |= 1u << f.has_bit;
}

Status LayoutBuilder::set_int64(uint32_t number, int64_t v) {
  DPURPC_ASSIGN_OR_RETURN(const FieldEntry* f, field(number, false));
  if (scalar_elem_size(f->type) == 4) {
    store_le(base_ + f->offset, static_cast<uint32_t>(static_cast<int32_t>(v)));
  } else {
    store_le(base_ + f->offset, static_cast<uint64_t>(v));
  }
  set_has_bit(*f);
  return Status::ok();
}

Status LayoutBuilder::set_uint64(uint32_t number, uint64_t v) {
  DPURPC_ASSIGN_OR_RETURN(const FieldEntry* f, field(number, false));
  if (f->type == FieldType::kBool) {
    *reinterpret_cast<uint8_t*>(base_ + f->offset) = v != 0 ? 1 : 0;
  } else if (scalar_elem_size(f->type) == 4) {
    store_le(base_ + f->offset, static_cast<uint32_t>(v));
  } else {
    store_le(base_ + f->offset, v);
  }
  set_has_bit(*f);
  return Status::ok();
}

Status LayoutBuilder::set_bool(uint32_t number, bool v) {
  return set_uint64(number, v ? 1 : 0);
}

Status LayoutBuilder::set_float(uint32_t number, float v) {
  DPURPC_ASSIGN_OR_RETURN(const FieldEntry* f, field(number, false));
  if (f->type != FieldType::kFloat) {
    return Status(Code::kInvalidArgument, "field is not float");
  }
  std::memcpy(base_ + f->offset, &v, 4);
  set_has_bit(*f);
  return Status::ok();
}

Status LayoutBuilder::set_double(uint32_t number, double v) {
  DPURPC_ASSIGN_OR_RETURN(const FieldEntry* f, field(number, false));
  if (f->type != FieldType::kDouble) {
    return Status(Code::kInvalidArgument, "field is not double");
  }
  std::memcpy(base_ + f->offset, &v, 8);
  set_has_bit(*f);
  return Status::ok();
}

Status LayoutBuilder::set_string(uint32_t number, std::string_view v) {
  DPURPC_ASSIGN_OR_RETURN(const FieldEntry* f, field(number, false));
  if (f->type != FieldType::kString && f->type != FieldType::kBytes) {
    return Status(Code::kInvalidArgument, "field is not string/bytes");
  }
  auto flavor = static_cast<arena::StdLibFlavor>(adt_->fingerprint().string_flavor);
  DPURPC_RETURN_IF_ERROR(
      arena::craft_string(base_ + f->offset, v, *arena_, {}, flavor));
  set_has_bit(*f);
  return Status::ok();
}

StatusOr<LayoutBuilder> LayoutBuilder::mutable_message(uint32_t number) {
  DPURPC_ASSIGN_OR_RETURN(const FieldEntry* f, field(number, false));
  if (f->type != FieldType::kMessage) {
    return Status(Code::kInvalidArgument, "field is not a message");
  }
  auto* existing =
      reinterpret_cast<std::byte*>(load_le<uint64_t>(base_ + f->offset));
  if (existing != nullptr) {
    return LayoutBuilder(adt_, f->child_class, existing, arena_);
  }
  auto child = create(adt_, f->child_class, arena_);
  if (!child.is_ok()) return child.status();
  store_le(base_ + f->offset, reinterpret_cast<uint64_t>(child->object()));
  set_has_bit(*f);
  return child;
}

StatusOr<std::byte*> LayoutBuilder::append_slot(std::byte* header, uint32_t elem) {
  RepHeader h;
  std::memcpy(&h, header, sizeof(h));
  auto* local = static_cast<std::byte*>(h.data);
  if (h.size == h.capacity) {
    if (h.capacity > UINT32_MAX / 2) {
      return Status(Code::kResourceExhausted, "repeated field too large");
    }
    const uint32_t new_cap = h.capacity ? h.capacity * 2 : 8;
    const size_t old_bytes = static_cast<size_t>(h.capacity) * elem;
    const size_t new_bytes = static_cast<size_t>(new_cap) * elem;
    if (h.capacity == 0 || !arena_->try_extend(local, old_bytes, new_bytes)) {
      auto* fresh = static_cast<std::byte*>(arena_->allocate(new_bytes, elem));
      if (fresh == nullptr) return Status(Code::kResourceExhausted, "arena full");
      if (h.size > 0) std::memcpy(fresh, local, static_cast<size_t>(h.size) * elem);
      local = fresh;
      h.data = fresh;
    }
    h.capacity = new_cap;
  }
  std::byte* slot = local + static_cast<size_t>(h.size) * elem;
  ++h.size;
  std::memcpy(header, &h, sizeof(h));
  return slot;
}

Status LayoutBuilder::add_scalar_checked(uint32_t number, uint64_t raw_value) {
  DPURPC_ASSIGN_OR_RETURN(const FieldEntry* f, field(number, true));
  if (!proto::is_packable(f->type)) {
    return Status(Code::kInvalidArgument, "field is not a repeated scalar");
  }
  const uint32_t elem = scalar_elem_size(f->type);
  DPURPC_ASSIGN_OR_RETURN(std::byte* slot, append_slot(base_ + f->offset, elem));
  store_scalar(slot, elem, raw_value);
  hot_field_ = number;
  hot_offset_ = f->offset;
  hot_elem_ = elem;
  return Status::ok();
}

Status LayoutBuilder::add_string(uint32_t number, std::string_view v) {
  DPURPC_ASSIGN_OR_RETURN(const FieldEntry* f, field(number, true));
  if (f->type != FieldType::kString && f->type != FieldType::kBytes) {
    return Status(Code::kInvalidArgument, "field is not repeated string/bytes");
  }
  uint32_t slot_size = adt_->fingerprint().string_size;
  void* str = arena_->allocate(slot_size, 8);
  if (str == nullptr) return Status(Code::kResourceExhausted, "arena full");
  auto flavor = static_cast<arena::StdLibFlavor>(adt_->fingerprint().string_flavor);
  DPURPC_RETURN_IF_ERROR(arena::craft_string(str, v, *arena_, {}, flavor));
  DPURPC_ASSIGN_OR_RETURN(std::byte* slot,
                          append_slot(base_ + f->offset, sizeof(void*)));
  store_le(slot, reinterpret_cast<uint64_t>(str));
  return Status::ok();
}

StatusOr<LayoutBuilder> LayoutBuilder::add_message(uint32_t number) {
  DPURPC_ASSIGN_OR_RETURN(const FieldEntry* f, field(number, true));
  if (f->type != FieldType::kMessage) {
    return Status(Code::kInvalidArgument, "field is not a repeated message");
  }
  auto child = create(adt_, f->child_class, arena_);
  if (!child.is_ok()) return child.status();
  DPURPC_ASSIGN_OR_RETURN(std::byte* slot,
                          append_slot(base_ + f->offset, sizeof(void*)));
  store_le(slot, reinterpret_cast<uint64_t>(child->object()));
  return child;
}

}  // namespace dpurpc::adt
