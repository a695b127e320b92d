#include "util.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "driver/checkpoint.hpp"

extern char** environ;

namespace perfbench {

namespace {

/// Daemons still running; die() reaps them, since exit() skips the
/// destructors of the Daemon objects on the stack.
std::vector<pid_t>& liveDaemons() {
  static std::vector<pid_t> pids;
  return pids;
}

void forget(pid_t pid) {
  std::vector<pid_t>& live = liveDaemons();
  live.erase(std::remove(live.begin(), live.end(), pid), live.end());
}

void reap(pid_t pid) {
  ::kill(pid, SIGKILL);
  int status = 0;
  ::waitpid(pid, &status, 0);
  forget(pid);
}

double peakRssMb(const std::string& status_path) {
  std::ifstream in(status_path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

}  // namespace

void die(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  while (!liveDaemons().empty()) reap(liveDaemons().back());
  std::exit(2);
}

ProcUsage procUsage(pid_t pid) {
  ProcUsage u;
  if (pid == 0) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
                  1e6;
    u.peak_rss_mb = peakRssMb("/proc/self/status");
    return u;
  }
  const std::string base = "/proc/" + std::to_string(pid);
  std::ifstream in(base + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name: state is field 3,
  // utime field 14, stime field 15.
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) die("cannot read " + base + "/stat");
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i >= 14) ticks += std::strtod(field.c_str(), nullptr);
  }
  u.cpu_s = ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
  u.peak_rss_mb = peakRssMb(base + "/status");
  return u;
}

wp::driver::SchemeSpec baselineSpec() { return wp::driver::SchemeSpec{}; }

wp::driver::SchemeSpec wayMemoSpec() {
  wp::driver::SchemeSpec s;
  s.scheme = wp::cache::Scheme::kWayMemoization;
  return s;
}

wp::driver::SchemeSpec wayPlaceSpec(u32 area_kb, std::string layout) {
  wp::driver::SchemeSpec s;
  s.scheme = wp::cache::Scheme::kWayPlacement;
  s.wp_area_bytes = area_kb * 1024;
  s.layout = std::move(layout);
  return s;
}

void Report::fail(const std::string& why) {
  if (correct) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", why.c_str());
  }
  correct = false;
}

void Report::print() const {
  for (const std::string& n : notes) std::printf("# %s\n", n.c_str());
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + m.name + "\": {\"value\": ";
    out += std::isfinite(m.value) ? g17(m.value) : "null";
    out += ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

std::string g17(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string pct(double p) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", p);
  return buf;
}

Fields parseReply(const std::string& reply) {
  std::map<std::string, wp::driver::JsonToken> tokens;
  Fields out;
  if (!wp::driver::parseFlatJsonLine(reply, tokens)) return out;
  for (auto& [key, token] : tokens) out[key] = token.text;
  return out;
}

u64 fieldU64(const Fields& f, const std::string& key) {
  const auto it = f.find(key);
  if (it == f.end()) return 0;
  return std::strtoull(it->second.c_str(), nullptr, 10);
}

Fields daemonStats(Daemon& d) {
  Fields f = parseReply(d.request("{\"op\": \"stats\"}"));
  if (f["fate"] != "ok") die("the daemon's stats op failed");
  return f;
}

void removeTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

void makeDirs(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  if (ec) die("cannot create " + path + ": " + ec.message());
}

// ---- Daemon ---------------------------------------------------------

Daemon::Daemon(const Options& opt, const std::string& dir,
               const std::string& store)
    : dir_(dir) {
  makeDirs(dir);
  const std::string bin = std::filesystem::absolute(opt.serve_bin).string();
  // The daemon sees no WP_* knob but the ones set here.
  std::vector<std::string> env;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "WP_", 3) != 0) env.emplace_back(*e);
  }
  env.push_back("WP_SERVE_SOCKET=wp.sock");
  env.push_back("WP_STORE=" + store);
  env.push_back("WP_JOBS=1");
  env.push_back("WP_SEED=" + std::to_string(opt.seed));
  std::vector<char*> envp;
  for (std::string& s : env) envp.push_back(s.data());
  envp.push_back(nullptr);
  const std::string log = dir + "/daemon.log";
  const std::string sock = dir + "/wp.sock";
  ::unlink(sock.c_str());

  const double start = wallNow();
  pid_ = ::fork();
  if (pid_ < 0) die(std::string("fork: ") + std::strerror(errno));
  if (pid_ == 0) {
    const int logfd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (::chdir(dir.c_str()) != 0 || logfd < 0) _exit(127);
    ::dup2(logfd, 1);
    ::dup2(logfd, 2);
    char* argv[] = {const_cast<char*>(bin.c_str()), nullptr};
    ::execve(bin.c_str(), argv, envp.data());
    _exit(127);
  }
  liveDaemons().push_back(pid_);

  std::string error;
  for (;;) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      forget(pid_);
      pid_ = -1;
      die("wp_serve exited during start-up; see " + log);
    }
    fd_ = wp::support::connectUnix(sock, error);
    if (fd_ >= 0) break;
    if (wallNow() - start > 60.0) die("wp_serve did not listen within 60 s");
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  reader_ = std::make_unique<wp::support::LineReader>(fd_);
  const Fields health = parseReply(request("{\"op\": \"health\"}"));
  setup_s_ = wallNow() - start;
  const auto fate = health.find("fate");
  if (fate == health.end() || fate->second != "ok") {
    die("wp_serve's health reply was not ok");
  }
}

std::string Daemon::request(const std::string& line) {
  std::string reply;
  exchange(line + "\n", reply);
  return reply;
}

void Daemon::exchange(const std::string& framed, std::string& reply) {
  if (!wp::support::sendAll(fd_, framed) || !reader_->next(reply)) {
    die("lost the connection to wp_serve; see " + dir_ + "/daemon.log");
  }
}

bool Daemon::drain() {
  if (pid_ < 0) return false;
  (void)request("{\"op\": \"drain\"}");
  ::close(fd_);
  fd_ = -1;
  const double start = wallNow();
  int status = 0;
  while (::waitpid(pid_, &status, WNOHANG) != pid_) {
    if (wallNow() - start > 30.0) {
      reap(pid_);
      pid_ = -1;
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  forget(pid_);
  pid_ = -1;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

Daemon::~Daemon() {
  if (fd_ >= 0) ::close(fd_);
  if (pid_ > 0) reap(pid_);
}

}  // namespace perfbench
