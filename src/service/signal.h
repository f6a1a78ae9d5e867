// Cooperative SIGINT/SIGTERM drain for long-running sweeps. A killed
// 49-hour campaign (the paper's Sec. III-B scale) should leave a complete,
// resumable checkpoint, not a torn one — so instead of letting the default
// handler abort mid-write, the CLI installs ScopedSignalDrain and passes
// its token as RunOptions::stop: the handler only flips an atomic, workers
// finish the records they are holding, the calling thread delivers every
// finished record in canonical order, and every sink (including the JSONL
// checkpoint) is flushed before the process exits with the conventional
// 128+signo status.
#pragma once

#include <atomic>

namespace saffire {

// RAII signal-handler installation. At most one instance may be live at a
// time (the handlers write process-wide flags); the constructor enforces
// this. The destructor restores the previous handlers.
class ScopedSignalDrain {
 public:
  ScopedSignalDrain();
  ~ScopedSignalDrain();
  ScopedSignalDrain(const ScopedSignalDrain&) = delete;
  ScopedSignalDrain& operator=(const ScopedSignalDrain&) = delete;

  // Stop token to pass as RunOptions::stop. Set (only) by the handler.
  const std::atomic<bool>* token() const;

  // True once SIGINT or SIGTERM was received.
  bool triggered() const;

  // The signal that triggered the drain, or 0. The CLI exits 128 + this.
  int signal_number() const;
};

}  // namespace saffire
