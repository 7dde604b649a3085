#include "src/obs/flight_recorder.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string_view>
#include <vector>

namespace firehose {
namespace obs {

namespace {

/// One decoded, verified-consistent slot, for the non-signal dump path.
struct ReadEvent {
  const char* name;
  const char* cat;
  char ph;
  uint64_t ts_nanos;
  uint64_t dur_nanos;
  uint32_t tid;
};

/// Seqlock read of one slot. Returns false when the slot is empty or the
/// writer tore through it while we read.
bool ReadSlot(const std::atomic<uint32_t>& seq,
              const std::atomic<const char*>& name,
              const std::atomic<const char*>& cat,
              const std::atomic<uint64_t>& ts,
              const std::atomic<uint64_t>& dur, const std::atomic<char>& ph,
              uint32_t slot_tid, ReadEvent* out) {
  const uint32_t s1 = seq.load(std::memory_order_acquire);
  if (s1 == 0 || (s1 & 1u) != 0) return false;  // never written, or mid-write
  // Each field load acquires the writer's release store of it, which
  // follows the odd sequence store: a field from a newer write makes the
  // second sequence load read that odd value (or a later one).
  out->name = name.load(std::memory_order_acquire);
  out->cat = cat.load(std::memory_order_acquire);
  out->ts_nanos = ts.load(std::memory_order_acquire);
  out->dur_nanos = dur.load(std::memory_order_acquire);
  out->ph = ph.load(std::memory_order_acquire);
  out->tid = slot_tid;
  const uint32_t s2 = seq.load(std::memory_order_relaxed);
  return s1 == s2 && out->name != nullptr;
}

void AppendEscaped(std::string_view text, std::string* out) {
  for (char c : text) {
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\n': out->append("\\n"); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
}

// ---- async-signal-safe formatting helpers (stack buffers + write(2)) ----

size_t FormatU64(uint64_t value, char* buf) {
  char tmp[20];
  size_t n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + value % 10);
    value /= 10;
  } while (value != 0);
  for (size_t i = 0; i < n; ++i) buf[i] = tmp[n - 1 - i];
  return n;
}

void WriteRaw(int fd, const char* data, size_t size) {
  size_t off = 0;
  while (off < size) {
    const ssize_t n = ::write(fd, data + off, size - off);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;  // nothing sane to do mid-crash
    }
    off += static_cast<size_t>(n);
  }
}

void WriteCstr(int fd, const char* s) { WriteRaw(fd, s, std::strlen(s)); }

void WriteU64(int fd, uint64_t value) {
  char buf[20];
  WriteRaw(fd, buf, FormatU64(value, buf));
}

// ---- crash handler state ----

char g_crash_path[512] = {0};

void CrashDumpHandler(int sig) {
  FlightRecorder* recorder = GlobalFlightRecorder();
  if (recorder != nullptr && g_crash_path[0] != '\0') {
    const int fd =
        ::open(g_crash_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      recorder->DumpToFd(fd);
      ::close(fd);
    }
  }
  // SA_RESETHAND restored the default disposition on handler entry, so
  // re-raising terminates with the original signal (correct exit status
  // and core behaviour for whoever is watching).
  ::raise(sig);
}

}  // namespace

void FlightRecorder::Record(uint32_t tid, const char* name, const char* cat,
                            char ph, uint64_t ts_nanos, uint64_t dur_nanos) {
  if (tid >= static_cast<uint32_t>(kMaxThreads)) return;
  Ring& ring = rings_[tid];
  const uint64_t head = ring.head.load(std::memory_order_relaxed);
  Slot& slot = ring.slots[head % static_cast<uint64_t>(kSlotsPerThread)];

  const uint32_t seq = slot.seq.load(std::memory_order_relaxed);
  slot.seq.store(seq + 1, std::memory_order_relaxed);  // odd: mid-write
  // Each field's release store orders the odd sequence before it: no
  // standalone fence, which the thread sanitizer cannot check. On x86
  // every one of these stores is a plain move.
  slot.name.store(name, std::memory_order_release);
  slot.cat.store(cat, std::memory_order_release);
  slot.ts_nanos.store(ts_nanos, std::memory_order_release);
  slot.dur_nanos.store(dur_nanos, std::memory_order_release);
  slot.ph.store(ph, std::memory_order_release);
  slot.seq.store(seq + 2, std::memory_order_release);  // even: stable

  ring.head.store(head + 1, std::memory_order_release);
}

void FlightRecorder::RecordComplete(uint32_t tid, const char* name,
                                    const char* cat, uint64_t start_nanos,
                                    uint64_t end_nanos) {
  const uint64_t dur = end_nanos > start_nanos ? end_nanos - start_nanos : 0;
  Record(tid, name, cat, 'X', start_nanos, dur);
}

void FlightRecorder::RecordInstant(uint32_t tid, const char* name,
                                   const char* cat) {
  Record(tid, name, cat, 'i', NowNanos(), 0);
}

uint64_t FlightRecorder::TotalRecorded() const {
  uint64_t total = 0;
  for (const Ring& ring : rings_) {
    total += ring.head.load(std::memory_order_relaxed);
  }
  return total;
}

std::string FlightRecorder::DumpJson(uint64_t window_nanos) const {
  std::vector<ReadEvent> events;
  for (int t = 0; t < kMaxThreads; ++t) {
    const Ring& ring = rings_[t];
    const uint64_t head = ring.head.load(std::memory_order_acquire);
    const uint64_t n =
        std::min(head, static_cast<uint64_t>(kSlotsPerThread));
    for (uint64_t i = 0; i < n; ++i) {
      const Slot& slot = ring.slots[i];
      ReadEvent ev;
      if (ReadSlot(slot.seq, slot.name, slot.cat, slot.ts_nanos,
                   slot.dur_nanos, slot.ph, static_cast<uint32_t>(t), &ev)) {
        events.push_back(ev);
      }
    }
  }

  if (!events.empty() && window_nanos > 0) {
    uint64_t newest = 0;
    for (const ReadEvent& ev : events) {
      newest = std::max(newest, ev.ts_nanos + ev.dur_nanos);
    }
    const uint64_t cutoff =
        newest > window_nanos ? newest - window_nanos : 0;
    events.erase(std::remove_if(events.begin(), events.end(),
                                [cutoff](const ReadEvent& ev) {
                                  return ev.ts_nanos + ev.dur_nanos < cutoff;
                                }),
                 events.end());
  }

  std::sort(events.begin(), events.end(),
            [](const ReadEvent& a, const ReadEvent& b) {
              if (a.ts_nanos != b.ts_nanos) return a.ts_nanos < b.ts_nanos;
              return a.tid < b.tid;
            });

  uint64_t base = events.empty() ? 0 : events.front().ts_nanos;

  std::string out = "{\"traceEvents\":[";
  bool first = true;
  char num[32];
  for (const ReadEvent& ev : events) {
    if (!first) out.push_back(',');
    first = false;
    out.append("\n{\"name\":\"");
    AppendEscaped(ev.name, &out);
    out.append("\",\"cat\":\"");
    AppendEscaped(ev.cat, &out);
    out.append("\",\"ph\":\"");
    out.push_back(ev.ph);
    out.append("\",\"ts\":");
    out.append(num, FormatU64((ev.ts_nanos - base) / 1000, num));
    if (ev.ph == 'X') {
      out.append(",\"dur\":");
      out.append(num, FormatU64(ev.dur_nanos / 1000, num));
    } else {
      out.append(",\"s\":\"t\"");
    }
    out.append(",\"pid\":1,\"tid\":");
    out.append(num, FormatU64(ev.tid, num));
    out.push_back('}');
  }
  out.append(events.empty() ? "]}\n" : "\n]}\n");
  return out;
}

void FlightRecorder::DumpToFd(int fd) const {
  WriteCstr(fd, "{\"traceEvents\":[");
  bool first = true;
  for (int t = 0; t < kMaxThreads; ++t) {
    const Ring& ring = rings_[t];
    const uint64_t head = ring.head.load(std::memory_order_acquire);
    const uint64_t n =
        std::min(head, static_cast<uint64_t>(kSlotsPerThread));
    for (uint64_t i = 0; i < n; ++i) {
      const Slot& slot = ring.slots[i];
      ReadEvent ev;
      if (!ReadSlot(slot.seq, slot.name, slot.cat, slot.ts_nanos,
                    slot.dur_nanos, slot.ph, static_cast<uint32_t>(t),
                    &ev)) {
        continue;
      }
      if (!first) WriteCstr(fd, ",");
      first = false;
      // Names and categories are string literals by contract, so they
      // never need JSON escaping here — and escaping would need buffers.
      WriteCstr(fd, "\n{\"name\":\"");
      WriteCstr(fd, ev.name);
      WriteCstr(fd, "\",\"cat\":\"");
      WriteCstr(fd, ev.cat);
      WriteCstr(fd, "\",\"ph\":\"");
      const char ph[2] = {ev.ph, '\0'};
      WriteCstr(fd, ph);
      WriteCstr(fd, "\",\"ts\":");
      WriteU64(fd, ev.ts_nanos / 1000);
      if (ev.ph == 'X') {
        WriteCstr(fd, ",\"dur\":");
        WriteU64(fd, ev.dur_nanos / 1000);
      } else {
        WriteCstr(fd, ",\"s\":\"t\"");
      }
      WriteCstr(fd, ",\"pid\":1,\"tid\":");
      WriteU64(fd, ev.tid);
      WriteCstr(fd, "}");
    }
  }
  WriteCstr(fd, first ? "]}\n" : "\n]}\n");
}

namespace {
std::atomic<FlightRecorder*> g_flight{nullptr};
}  // namespace

FlightRecorder* GlobalFlightRecorder() {
  return g_flight.load(std::memory_order_acquire);
}

void SetGlobalFlightRecorder(FlightRecorder* recorder) {
  g_flight.store(recorder, std::memory_order_release);
}

void InstallCrashDumpHandler(const char* path) {
  std::strncpy(g_crash_path, path, sizeof(g_crash_path) - 1);
  g_crash_path[sizeof(g_crash_path) - 1] = '\0';

  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = CrashDumpHandler;
  action.sa_flags = SA_RESETHAND;
  sigemptyset(&action.sa_mask);
  ::sigaction(SIGSEGV, &action, nullptr);
  ::sigaction(SIGABRT, &action, nullptr);
  ::sigaction(SIGBUS, &action, nullptr);
}

}  // namespace obs
}  // namespace firehose
