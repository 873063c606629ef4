#include "fleet.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "service/client.h"

namespace fleetbench {

namespace fs = std::filesystem;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool alive(pid_t pid) { return pid > 0 && ::kill(pid, 0) == 0; }

/// Waits for a child to exit; SIGKILLs it after `grace_s`.
void wait_child(pid_t pid, double grace_s) {
  const double deadline = now_s() + grace_s;
  for (;;) {
    int status = 0;
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid || (r < 0 && errno == ECHILD)) return;
    if (now_s() > deadline) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

}  // namespace

pid_t spawn_process(std::vector<std::string> args, const fs::path& log) {
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    // Die with the benchmark: never leave a daemon behind.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd >= 0) {
      ::dup2(fd, STDERR_FILENO);
      ::dup2(fd, STDOUT_FILENO);
      ::close(fd);
    }
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  return pid;
}

void stop_process(pid_t pid, double grace_s) {
  if (pid <= 0) return;
  ::kill(pid, SIGTERM);
  wait_child(pid, grace_s);
}

void Fleet::spawn(const fs::path& log) {
  std::vector<std::string> args = {
      options_.supervisord.string(), "--socket", options_.socket.string(),
      "--root", options_.root.string(), "--shardd", options_.shardd.string(),
      "--shards", "2", "--workers", "2"};
  if (options_.checkpoint_every > 0) {
    args.push_back("--checkpoint-every");
    args.push_back(std::to_string(options_.checkpoint_every));
  }
  fs::remove(options_.socket);
  pid_ = spawn_process(std::move(args), log);
}

void Fleet::wait_ready(double timeout_s) const {
  const double deadline = now_s() + timeout_s;
  vire::service::ClientConfig config;
  config.read_timeout_s = timeout_s;
  for (;;) {
    try {
      vire::service::ServiceClient probe(options_.socket, config);
      return;
    } catch (const vire::service::TransportError&) {
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      throw std::runtime_error("vire_supervisord exited during start-up");
    }
    if (now_s() > deadline) {
      throw std::runtime_error("vire_supervisord did not start listening");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

void Fleet::stop() {
  if (pid_ <= 0) return;
  stop_process(pid_, 30.0);
  pid_ = -1;
  kill_all();  // shards a failed drain left behind
}

std::vector<pid_t> Fleet::pids() const {
  std::vector<pid_t> out;
  if (alive(pid_)) out.push_back(pid_);
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(options_.root, ec)) {
    std::ifstream in(entry.path() / "shardd.pid");
    pid_t pid = -1;
    if (in >> pid && alive(pid)) out.push_back(pid);
  }
  return out;
}

void Fleet::kill_all() {
  const std::vector<pid_t> all = pids();
  for (const pid_t pid : all) ::kill(pid, SIGKILL);
  if (pid_ > 0) wait_child(pid_, 10.0);
  pid_ = -1;
  // Shards are the daemon's children; as orphans they are re-parented to us
  // (become_subreaper), so wait until each is really gone.
  for (const pid_t pid : all) {
    const double deadline = now_s() + 10.0;
    while (alive(pid) && now_s() < deadline) {
      reap_children();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  reap_children();
}

double process_cpu_s(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) return 0.0;
  // Fields after the parenthesised command name; utime/stime are 14/15.
  std::istringstream rest(line.substr(line.rfind(')') + 2));
  std::string field;
  double utime = 0.0;
  double stime = 0.0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::stod(field);
    if (i == 15) stime = std::stod(field);
  }
  return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double process_peak_rss_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
    std::string rest;
    std::getline(in, rest);
  }
  return 0.0;
}

HostCpu host_cpu() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v[8] = {};
  in >> cpu;
  for (double& x : v) in >> x;
  const double tick = static_cast<double>(::sysconf(_SC_CLK_TCK));
  // user nice system idle iowait irq softirq steal
  HostCpu out;
  out.busy_s = (v[0] + v[1] + v[2] + v[5] + v[6]) / tick;
  out.steal_s = v[7] / tick;
  return out;
}

std::string load_average() {
  std::ifstream in("/proc/loadavg");
  std::string a, b, c;
  in >> a >> b >> c;
  return a + " " + b + " " + c;
}

void become_subreaper() { ::prctl(PR_SET_CHILD_SUBREAPER, 1); }

void reap_children() {
  int status = 0;
  while (::waitpid(-1, &status, WNOHANG) > 0) {
  }
}

}  // namespace fleetbench
