// vebo-lint-fixture: promise-settle
// Known-bad: a failure path that resolves the promise itself instead of
// ending the query through GraphService::settle, so the ledger, latency,
// window and heartbeat never see it. The set_value inside settle() is
// the one sanctioned site and must not fire.
#include <exception>
#include <future>

namespace vebo::serve {

struct Item {
  std::promise<int> promise;
};

void GraphService::settle(Item& item, int value) {
  if (value >= 0) {
    item.promise.set_value(value);
  }
}

void GraphService::fail(Item& item, std::exception_ptr error) {
  item.promise.set_exception(error);
}

}  // namespace vebo::serve
