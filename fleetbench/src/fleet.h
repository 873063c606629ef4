#pragma once
// A vire_supervisord fleet run as real child processes, plus the /proc
// readings the benchmark takes from it (CPU, peak RSS) and from the host
// (steal, load).

#include <sys/types.h>

#include <filesystem>
#include <string>
#include <vector>

namespace fleetbench {

struct FleetOptions {
  std::filesystem::path supervisord;  ///< absolute path of vire_supervisord
  std::filesystem::path shardd;       ///< absolute path of vire_shardd
  /// Relative to the working directory, keeping socket paths short.
  std::filesystem::path root = "fleet";
  std::filesystem::path socket = "fleet.sock";
  int checkpoint_every = 0;  ///< 0 = daemon default
};

/// vire_supervisord --shards 2 --workers 2, every other flag at its default.
class Fleet {
 public:
  explicit Fleet(FleetOptions options) : options_(std::move(options)) {}
  ~Fleet() { kill_all(); }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Spawns vire_supervisord over options.root (kept as is: a restart over
  /// an existing root recovers it). Its stderr goes to `log`.
  void spawn(const std::filesystem::path& log);
  /// Blocks until the daemon's socket accepts a connection (its shards are
  /// up by then: the daemon starts them before it listens).
  void wait_ready(double timeout_s) const;
  /// SIGTERM and wait: the daemon drains its shards and stops them.
  void stop();
  /// SIGKILL the daemon and every shard listed in its pidfiles; reaps all.
  void kill_all();

  /// Daemon pid plus every live shard pid from the pidfiles.
  [[nodiscard]] std::vector<pid_t> pids() const;

 private:
  FleetOptions options_;
  pid_t pid_ = -1;
};

/// user+sys CPU seconds of `pid` so far (0 when the process is gone).
[[nodiscard]] double process_cpu_s(pid_t pid);
/// Peak resident set (VmHWM) of `pid` in MiB.
[[nodiscard]] double process_peak_rss_mb(pid_t pid);

/// Host-wide counters from /proc/stat, in seconds.
struct HostCpu {
  double steal_s = 0.0;
  double busy_s = 0.0;
};
[[nodiscard]] HostCpu host_cpu();
[[nodiscard]] std::string load_average();

/// fork+exec of `args` (argv[0] is the binary path) with stdout/stderr
/// appended to `log`; the child is SIGKILLed if the benchmark dies.
[[nodiscard]] pid_t spawn_process(std::vector<std::string> args,
                                  const std::filesystem::path& log);
/// SIGTERM, then wait up to `grace_s` before SIGKILL; reaps the child.
void stop_process(pid_t pid, double grace_s);

/// Makes orphaned grandchildren (shards of a SIGKILLed daemon) ours to reap.
void become_subreaper();
/// Reaps every exited child without blocking.
void reap_children();

}  // namespace fleetbench
