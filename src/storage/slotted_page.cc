#include "storage/slotted_page.h"

#include <cstring>

#include "common/string_util.h"

namespace stagedb::storage {

void SlottedPage::Init() {
  Header* h = header();
  h->num_slots = 0;
  h->free_end = kPageSize;
  h->next_page = kInvalidPageId;
}

uint16_t SlottedPage::num_slots() const { return header()->num_slots; }

PageId SlottedPage::next_page() const { return header()->next_page; }

void SlottedPage::set_next_page(PageId id) { header()->next_page = id; }

uint16_t SlottedPage::live_records() const {
  uint16_t live = 0;
  for (uint16_t i = 0; i < num_slots(); ++i) {
    if (slot(i)->length > 0) ++live;
  }
  return live;
}

size_t SlottedPage::FreeSpace() const {
  const Header* h = header();
  const size_t slots_end = sizeof(Header) + h->num_slots * sizeof(Slot);
  if (h->free_end < slots_end) return 0;
  const size_t gap = h->free_end - slots_end;
  return gap > sizeof(Slot) ? gap - sizeof(Slot) : 0;
}

StatusOr<uint16_t> SlottedPage::Insert(std::string_view record) {
  if (record.size() > 0xFFFF) {
    return Status::InvalidArgument("record larger than 64KiB");
  }
  if (record.size() > FreeSpace()) {
    return Status::ResourceExhausted("page full");
  }
  Header* h = header();
  const uint16_t id = h->num_slots;
  h->num_slots += 1;
  h->free_end -= static_cast<uint16_t>(record.size());
  Slot* s = slot(id);
  s->offset = h->free_end;
  s->length = static_cast<uint16_t>(record.size());
  std::memcpy(page_->data() + s->offset, record.data(), record.size());
  return id;
}

StatusOr<std::string_view> SlottedPage::Get(uint16_t slot_id) const {
  if (slot_id >= num_slots()) {
    return Status::NotFound(StrFormat("slot %u out of range", slot_id));
  }
  const Slot* s = slot(slot_id);
  if (s->length == 0) {
    return Status::NotFound(StrFormat("slot %u deleted", slot_id));
  }
  if (size_t{s->offset} + s->length > kPageSize) {
    return Status::Corruption(StrFormat("slot %u leaves the page", slot_id));
  }
  return std::string_view(page_->data() + s->offset, s->length);
}

Status SlottedPage::WalkLiveRecords(const char* image,
                                    std::vector<RecordSpan>* spans,
                                    PageId* next) {
  spans->clear();
  Header h;
  std::memcpy(&h, image, sizeof(h));
  *next = h.next_page;
  const size_t slots_end = sizeof(Header) + size_t{h.num_slots} * sizeof(Slot);
  if (slots_end > kPageSize) {
    return Status::Corruption(
        StrFormat("slot directory of %u slots leaves the page", h.num_slots));
  }
  spans->reserve(h.num_slots);
  for (uint16_t i = 0; i < h.num_slots; ++i) {
    Slot s;
    std::memcpy(&s, image + sizeof(Header) + i * sizeof(Slot), sizeof(s));
    if (s.length == 0) continue;  // deleted
    if (s.offset < slots_end || size_t{s.offset} + s.length > kPageSize) {
      return Status::Corruption(StrFormat(
          "slot %u spans [%u, %u), outside the record area", i, s.offset,
          s.offset + s.length));
    }
    spans->push_back(RecordSpan{i, s.offset, s.length});
  }
  return Status::OK();
}

Status SlottedPage::Delete(uint16_t slot_id) {
  if (slot_id >= num_slots()) {
    return Status::NotFound(StrFormat("slot %u out of range", slot_id));
  }
  slot(slot_id)->length = 0;
  return Status::OK();
}

Status SlottedPage::OverwritePrefix(uint16_t slot_id,
                                    std::string_view prefix) {
  if (slot_id >= num_slots()) {
    return Status::NotFound(StrFormat("slot %u out of range", slot_id));
  }
  Slot* s = slot(slot_id);
  if (s->length == 0) return Status::NotFound("slot deleted");
  if (prefix.size() > s->length) {
    return Status::InvalidArgument("prefix longer than record");
  }
  std::memcpy(page_->data() + s->offset, prefix.data(), prefix.size());
  return Status::OK();
}

}  // namespace stagedb::storage
