#include "exec/exchange.h"

#include "common/macros.h"

namespace gammadb::exec {

Exchange::Exchange(size_t producers, size_t consumers, size_t tuple_size)
    : producers_(producers),
      consumers_(consumers),
      tuple_size_(tuple_size),
      cells_(producers * consumers) {
  GAMMA_CHECK(producers > 0 && consumers > 0 && tuple_size > 0);
}

void Exchange::Append(size_t producer, size_t consumer,
                      std::span<const uint8_t> t) {
  GAMMA_CHECK(t.size() == tuple_size_);
  cell(producer, consumer).Append(t);
}

void Exchange::Drain(size_t consumer, const TupleSink& sink) const {
  for (size_t p = 0; p < producers_; ++p) {
    const TupleArena& tuples = cell(p, consumer);
    for (uint32_t i = 0; i < tuples.size(); ++i) sink(tuples.Get(i));
  }
}

void Exchange::Clear() {
  for (TupleArena& tuples : cells_) tuples.Clear();
}

std::vector<SplitTable::Destination> ExchangeDestinations(
    Exchange& ex, size_t producer, const std::vector<int>& nodes,
    size_t rotate) {
  std::vector<SplitTable::Destination> dests;
  dests.reserve(nodes.size());
  for (size_t d = 0; d < nodes.size(); ++d) {
    const size_t c = (d + rotate) % nodes.size();
    dests.push_back(SplitTable::Destination{
        nodes[c], [&ex, producer, c](std::span<const uint8_t> t) {
          ex.Append(producer, c, t);
        }});
  }
  return dests;
}

}  // namespace gammadb::exec
