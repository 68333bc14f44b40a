#include "ookami/trace/export.hpp"

#include <cstdio>

namespace ookami::trace {

namespace {

/// Region names are string literals under our control, but escape
/// defensively so a quote or backslash can never corrupt the document.
void append_escaped(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void append_number(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

}  // namespace

std::string to_chrome_json(const std::vector<Event>& events) {
  std::string out;
  out.reserve(events.size() * 120 + 64);
  out += "{\"traceEvents\":[";
  bool first = true;
  for (const Event& e : events) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    append_escaped(out, e.name != nullptr ? e.name : "?");
    out += "\",\"cat\":\"ookami\",\"ph\":\"X\",\"ts\":";
    append_number(out, static_cast<double>(e.start_ns) * 1e-3);
    out += ",\"dur\":";
    append_number(out, static_cast<double>(e.end_ns - e.start_ns) * 1e-3);
    out += ",\"pid\":1,\"tid\":";
    append_number(out, static_cast<double>(e.tid));
    out += ",\"args\":{\"depth\":";
    append_number(out, static_cast<double>(e.depth));
    if (e.bytes > 0.0) {
      out += ",\"bytes\":";
      append_number(out, e.bytes);
    }
    if (e.flops > 0.0) {
      out += ",\"flops\":";
      append_number(out, e.flops);
    }
    if (e.graph != 0) {
      // Task-graph spans: run id, task index, and the critical parent
      // (omitted for sources).  32-bit values survive a JSON double.
      char buf[64];
      std::snprintf(buf, sizeof buf, ",\"graph\":%u,\"task\":%u", e.graph, e.task);
      out += buf;
      if (e.dep != kNoParent) {
        std::snprintf(buf, sizeof buf, ",\"dep\":%u", e.dep);
        out += buf;
      }
    }
    out += "}}";
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

}  // namespace ookami::trace
