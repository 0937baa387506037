#pragma once
// Peak resident set of the calling process, as the kernel records it.
//
// The high-water mark comes from VmHWM in /proc/self/status, not from
// getrusage: a process started by exec inherits the ru_maxrss of the
// address space it replaced, so a program launched from a large parent
// (a Python harness, say) reports at least that parent's footprint.
// VmHWM is reset at exec and measures only this program.

namespace drrg::support {

/// VmHWM of this process in MiB; 0 when unreadable (non-Linux).
[[nodiscard]] double peak_rss_mib();

}  // namespace drrg::support
