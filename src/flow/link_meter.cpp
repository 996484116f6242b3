#include "flow/link_meter.hpp"

namespace ruru {

void LinkMeter::on_packet(Timestamp t, std::size_t bytes) {
  window_.advance(t, [this](Timestamp start) { close(start); });
  ++current_packets_;
  current_bytes_ += bytes;
  ++total_packets_;
  total_bytes_ += bytes;
}

void LinkMeter::flush() {
  window_.flush([this](Timestamp start) { close(start); });
}

void LinkMeter::close(Timestamp start) {
  closed_.push_back(LinkWindow{start, current_packets_, current_bytes_, window_.width()});
  current_packets_ = 0;
  current_bytes_ = 0;
}

}  // namespace ruru
