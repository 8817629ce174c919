#include "perfbench/src/trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "src/support/logging.h"

namespace perfbench {

int Tracer::Begin(const std::string& name, int64_t request) {
  int parent = open_.empty() ? -1 : open_.back();
  Clock::time_point now = Clock::now();
  int id = Add(name, now, now, parent, request);
  open_.push_back(id);
  return id;
}

void Tracer::End(int id) {
  CHECK(!open_.empty() && open_.back() == id) << "span " << id << " closed out of order";
  open_.pop_back();
  spans_[static_cast<size_t>(id)].end = Clock::now();
}

int Tracer::Add(const std::string& name, Clock::time_point start, Clock::time_point end,
                int parent, int64_t request) {
  int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{name, start, end, parent, request});
  children_.emplace_back();
  if (parent >= 0) {
    children_[static_cast<size_t>(parent)].push_back(id);
  }
  return id;
}

double Tracer::DurationMs(int id) const {
  const Span& s = spans_[static_cast<size_t>(id)];
  return MsBetween(s.start, s.end);
}

double Tracer::SelfMs(int id) const {
  double self = DurationMs(id);
  for (int c : children_[static_cast<size_t>(id)]) {
    self -= DurationMs(c);
  }
  return self;
}

std::string Tracer::CheckNesting() const {
  for (size_t id = 0; id < spans_.size(); ++id) {
    const Span& s = spans_[id];
    if (s.end < s.start) {
      return s.name + " ends before it starts";
    }
    std::vector<int> kids = children_[id];
    std::sort(kids.begin(), kids.end(), [&](int a, int b) {
      return spans_[static_cast<size_t>(a)].start < spans_[static_cast<size_t>(b)].start;
    });
    Clock::time_point cursor = s.start;
    for (int c : kids) {
      const Span& k = spans_[static_cast<size_t>(c)];
      if (k.start < cursor || k.end > s.end) {
        return k.name + " is not nested inside " + s.name + " or overlaps a sibling";
      }
      cursor = k.end;
    }
    if (SelfMs(static_cast<int>(id)) < 0) {
      return s.name + " has negative self time";
    }
  }
  return "";
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream os(path);
  if (!os) {
    return false;
  }
  const Clock::time_point origin = spans_.empty() ? Clock::now() : spans_.front().start;
  os << "{\"traceEvents\": [\n";
  for (size_t id = 0; id < spans_.size(); ++id) {
    const Span& s = spans_[id];
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "\"ph\": \"X\", \"pid\": 1, \"tid\": %lld, \"ts\": %.3f, \"dur\": %.3f",
                  static_cast<long long>(s.request < 0 ? 0 : 1 + s.request % 16),
                  MsBetween(origin, s.start) * 1e3, DurationMs(static_cast<int>(id)) * 1e3);
    os << (id ? ",\n" : "") << "{\"name\": \"" << s.name << "\", " << buf
       << ", \"args\": {\"id\": " << id << ", \"parent\": " << s.parent
       << ", \"request\": " << s.request << "}}";
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench
