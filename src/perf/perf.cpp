#include "perf/perf.hpp"

#include <charconv>
#include <cstdio>

namespace rfic::perf {

namespace {
// Innermost CounterScope on this thread; null = bumps go to process().
thread_local Counters* tlScope = nullptr;
}  // namespace

Counters& process() {
  static Counters instance;
  return instance;
}

Counters& global() {
  Counters* s = tlScope;
  return s != nullptr ? *s : process();
}

CounterScope::CounterScope(Counters& c) : mine_(c), prev_(tlScope) {
  tlScope = &c;
}

CounterScope::~CounterScope() {
  tlScope = prev_;
  // Fold the scope's totals into the enclosing attribution target so the
  // process-wide numbers are unchanged by scoping.
  (prev_ != nullptr ? *prev_ : process()).addSnapshot(mine_.snapshot());
}

Counters* CounterScope::current() { return tlScope; }

Counters* CounterScope::exchange(Counters* c) {
  Counters* prev = tlScope;
  tlScope = c;
  return prev;
}

std::string format(const Snapshot& s) {
  std::string out;
  char line[160];
  for (const Field& f : kFields) {
    std::snprintf(line, sizeof line, "%-19s %14llu  %s\n", f.name,
                  static_cast<unsigned long long>(s.*f.member), f.doc);
    out += line;
  }
  return out;
}

void appendJsonFields(std::string& out, const Snapshot& s) {
  char value[24];
  for (const Field& f : kFields) {
    const auto end =
        std::to_chars(value, value + sizeof value, s.*f.member).ptr;
    out += ",\"";
    out += f.name;
    out += "\":";
    out.append(value, end);
  }
}

}  // namespace rfic::perf
