// chaind: the shipped daemon as its own process on loopback, driven by
// a closed loop and then an open loop of Zipf-popular corpus chains.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "dataset/corpus.hpp"
#include "layers.hpp"
#include "lint/lint.hpp"
#include "pathbuild/path_builder.hpp"
#include "service/handlers.hpp"
#include "service/server.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace chainbench {

namespace {

// The traffic is synthetic: nothing in the repository or its sources
// measures how often a chain is checked or which endpoint is asked.
// README.md gives the reason for each constant.
constexpr std::size_t kDomains = 10000;  ///< 5x the shipped cache in chains
constexpr int kSetupRepeats = 9;
constexpr double kZipfExponent = 1.0;
constexpr double kLintShare = 0.2;
constexpr double kOpenLoopRate = 1500.0;   ///< requests per second
constexpr std::size_t kWarmupRequests = 20000;
constexpr double kWarmupLimitS = 60.0;  ///< bound on each warm-up pass
constexpr std::size_t kSequenceLength = 1u << 20;
constexpr std::size_t kTracedRequests = 3000;
constexpr int kIoTimeoutMs = 10000;
constexpr double kFailedLatencyUs = 1e9;  ///< a failure misses any limit
constexpr std::size_t kWindows = 6;  ///< closed-loop latency windows

/// One distinct request: a corpus chain with its domain, on one endpoint.
struct RequestKind {
  std::size_t record = 0;
  bool lint = false;
  std::string wire;  ///< encoded request bytes
};

/// The request universe and the seeded Zipf sequence over it.
struct Traffic {
  std::vector<const chain::ChainObservation*> chains;
  std::vector<RequestKind> kinds;  ///< 2 per chain: analyze, lint
  std::vector<std::uint32_t> sequence;  ///< indices into kinds
};

bool safe_domain(const std::string& domain) {
  for (const char c : domain) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '.' ||
          c == '-')) {
      return false;
    }
  }
  return true;
}

Traffic make_traffic(const dataset::Corpus& corpus, std::uint64_t seed) {
  Traffic t;
  for (const dataset::DomainRecord& record : corpus.records()) {
    const chain::ChainObservation& obs = record.observation;
    if (obs.certificates.empty() || !safe_domain(obs.domain)) continue;
    const std::string body = pem_body(obs.certificates);
    for (const bool lint : {false, true}) {
      RequestKind kind;
      kind.record = t.chains.size();
      kind.lint = lint;
      kind.wire = chain_request(lint ? "/v1/lint" : "/v1/analyze", obs.domain,
                                body)
                      .encode();
      t.kinds.push_back(std::move(kind));
    }
    t.chains.push_back(&obs);
  }
  // Popularity rank -> chain through a seeded shuffle, so each seed has
  // its own head; then Zipf(s) draws by inverse CDF.
  const std::size_t u = t.chains.size();
  Rng rng(seed ^ 0x636861696e64ULL);
  std::vector<std::uint32_t> by_rank(u);
  for (std::size_t i = 0; i < u; ++i) by_rank[i] = static_cast<std::uint32_t>(i);
  for (std::size_t i = u; i > 1; --i) {
    std::swap(by_rank[i - 1], by_rank[rng.below(i)]);
  }
  std::vector<double> cdf(u);
  double total = 0.0;
  for (std::size_t r = 0; r < u; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
    cdf[r] = total;
  }
  t.sequence.resize(kSequenceLength);
  for (std::uint32_t& entry : t.sequence) {
    const double x = rng.unit() * total;
    const std::size_t rank = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), x) - cdf.begin());
    const std::uint32_t chain = by_rank[std::min(rank, u - 1)];
    entry = 2 * chain + (rng.chance(kLintShare) ? 1 : 0);
  }
  return t;
}

// --- the daemon process ------------------------------------------------

class Daemon {
 public:
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { stop(); }

  /// Starts `binary` on an ephemeral loopback port anchored on
  /// `roots_pem`, with `workers` workers and every other setting at its
  /// shipped default; returns false when it does not come up.
  bool start(const std::string& binary, const std::string& roots_pem,
             const std::string& dir, unsigned workers) {
    const std::string port_file = dir + "/chaind.port";
    const std::string log_file = dir + "/chaind.log";
    std::remove(port_file.c_str());
    const std::string workers_arg = std::to_string(workers);
    std::vector<const char*> argv = {
        binary.c_str(), "--port",    "0",       "--port-file",
        port_file.c_str(), "--roots", roots_pem.c_str(), "--workers",
        workers_arg.c_str(), nullptr};
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      const int log = ::open(log_file.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                             0644);
      if (log >= 0) {
        ::dup2(log, STDOUT_FILENO);
        ::dup2(log, STDERR_FILENO);
        ::close(log);
      }
      ::execv(binary.c_str(), const_cast<char* const*>(argv.data()));
      ::_exit(127);
    }
    const Clock::time_point start = Clock::now();
    while (seconds_since(start) < 20.0) {
      std::ifstream in(port_file);
      unsigned port = 0;
      if (in >> port && port != 0) {
        port_ = static_cast<std::uint16_t>(port);
        return true;
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return false;
  }

  /// SIGTERM, then SIGKILL after 10 s; always reaps.
  void stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    const Clock::time_point start = Clock::now();
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (seconds_since(start) > 10.0) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
  }

  int pid() const { return pid_; }
  std::uint16_t port() const { return port_; }

 private:
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
};

// --- a raw keep-alive connection --------------------------------------

class Connection {
 public:
  explicit Connection(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      fd_ = -1;
      return;
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool ok() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  bool send_all(const std::string& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Moves one complete response out of the buffer, if there is one.
  /// Sets `*broken` on an unframeable stream.
  std::optional<net::HttpResponse> take_response(bool* broken) {
    auto frame = net::probe_response_frame(buffer_);
    if (!frame.ok()) {
      *broken = true;
      return std::nullopt;
    }
    if (!frame.value().complete) return std::nullopt;
    const std::size_t size = frame.value().total_bytes;
    auto parsed = net::parse_response(BytesView(
        reinterpret_cast<const std::uint8_t*>(buffer_.data()), size));
    buffer_.erase(0, size);
    if (!parsed.ok()) {
      *broken = true;
      return std::nullopt;
    }
    return std::move(parsed).value();
  }

  /// Reads what is available (blocking up to `timeout_ms`); false on
  /// EOF, error or timeout.
  bool fill(int timeout_ms) {
    pollfd pfd{fd_, POLLIN, 0};
    if (::poll(&pfd, 1, timeout_ms) <= 0) return false;
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n <= 0) return false;
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof one);
    buffer_.append(chunk, static_cast<std::size_t>(n));
    return true;
  }

  /// One blocking request/response round trip.
  std::optional<net::HttpResponse> round_trip(const std::string& wire) {
    if (!send_all(wire)) return std::nullopt;
    bool broken = false;
    while (true) {
      if (auto response = take_response(&broken)) return response;
      if (broken || !fill(kIoTimeoutMs)) return std::nullopt;
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

// --- response bookkeeping ----------------------------------------------

/// What the load generator saw for one response.
struct Observed {
  std::uint32_t kind = 0;
  std::uint64_t body_hash = 0;
  bool hit = false;
  double latency_us = 0.0;
  double done_s = 0.0;  ///< closed loop: completion, from the loop's start
};

/// Turns one response into an Observed; false when it is a failure
/// (non-200 status or no x-cache verdict).
bool observe(const net::HttpResponse& response, std::uint32_t kind,
             double latency_us, Observed* out) {
  const auto cache = response.headers.find("x-cache");
  if (response.status != 200 || cache == response.headers.end()) return false;
  out->kind = kind;
  out->body_hash = fnv1a(response.body.data(), response.body.size());
  out->hit = cache->second == "hit";
  out->latency_us = latency_us;
  return true;
}

struct LoadStats {
  std::vector<Observed> observed;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double elapsed_s = 0.0;
  std::vector<double> lateness_us;  ///< open loop only
  std::vector<double> failed_done_s;  ///< closed loop: when failures ended

  void merge(const LoadStats& other) {
    attempted += other.attempted;
    failed += other.failed;
    observed.insert(observed.end(), other.observed.begin(),
                    other.observed.end());
    lateness_us.insert(lateness_us.end(), other.lateness_us.begin(),
                       other.lateness_us.end());
    failed_done_s.insert(failed_done_s.end(), other.failed_done_s.begin(),
                         other.failed_done_s.end());
  }
};

/// Latency quantile in ms; a failed request counts as missing any limit.
double latency_ms(const LoadStats& load, double q) {
  std::vector<double> latency(load.failed, kFailedLatencyUs);
  for (const Observed& o : load.observed) latency.push_back(o.latency_us);
  return quantile(latency, q) / 1000.0;
}

/// Closed-loop latency quantile in ms: the median over kWindows equal
/// windows of completion time, so one burst of host noise moves at most
/// one window. A failed request counts as missing any limit.
double windowed_latency_ms(const LoadStats& load, double seconds, double q) {
  const double width = seconds / kWindows;
  std::vector<std::vector<double>> windows(kWindows);
  const auto window_of = [&](double done_s) {
    return std::min(static_cast<std::size_t>(done_s / width), windows.size() - 1);
  };
  for (const Observed& o : load.observed) {
    windows[window_of(o.done_s)].push_back(o.latency_us);
  }
  for (const double done_s : load.failed_done_s) {
    windows[window_of(done_s)].push_back(kFailedLatencyUs);
  }
  std::vector<double> per_window;
  for (const std::vector<double>& window : windows) {
    per_window.push_back(quantile(window, q) / 1000.0);
  }
  std::printf("closed-loop p%g per window (ms):", q * 100);
  for (const double v : per_window) std::printf(" %.3f", v);
  std::printf("\n");
  return median(per_window);
}

/// CPU seconds (user + system) process `pid` has used so far.
double cpu_seconds(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  std::getline(in, line);
  const std::size_t close = line.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(line.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; fields >> field; ++i) {
    if (i == 14 || i == 15) ticks += std::strtod(field.c_str(), nullptr);
    if (i == 15) break;
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

/// Closed-loop throughput: the median over kWindows equal windows of
/// completion time.
double windowed_rate(const LoadStats& load, double seconds) {
  const double width = seconds / kWindows;
  std::vector<double> rates(kWindows, 0.0);
  for (const Observed& o : load.observed) {
    const auto w = static_cast<std::size_t>(o.done_s / width);
    if (w < rates.size()) rates[w] += 1.0 / width;
  }
  return median(rates);
}

/// Closed loop: `connections` keep-alive connections, each sending its
/// next request as soon as the previous response arrived, for `seconds`
/// or until `cursor` reaches `stop_at`. Requests follow `sequence`.
LoadStats closed_loop(const Traffic& traffic,
                      const std::vector<std::uint32_t>& sequence,
                      std::uint16_t port, unsigned connections, double seconds,
                      std::atomic<std::size_t>& cursor,
                      std::size_t stop_at = SIZE_MAX) {
  std::vector<LoadStats> per(connections);
  std::vector<std::thread> threads;
  const Clock::time_point start = Clock::now();
  for (unsigned c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      LoadStats& mine = per[c];
      std::unique_ptr<Connection> conn = std::make_unique<Connection>(port);
      while (seconds_since(start) < seconds) {
        const std::size_t next = cursor.fetch_add(1);
        if (next >= stop_at) break;
        const std::uint32_t kind = sequence[next % sequence.size()];
        ++mine.attempted;
        if (!conn->ok()) conn = std::make_unique<Connection>(port);
        const Clock::time_point sent = Clock::now();
        const auto response = conn->round_trip(traffic.kinds[kind].wire);
        const double latency_us = seconds_since(sent) * 1e6;
        Observed seen;
        if (!response.has_value() ||
            !observe(*response, kind, latency_us, &seen)) {
          ++mine.failed;
          mine.failed_done_s.push_back(seconds_since(start));
          conn = std::make_unique<Connection>(port);
          continue;
        }
        seen.done_s = seconds_since(start);
        mine.observed.push_back(seen);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LoadStats all;
  all.elapsed_s = seconds_since(start);
  for (const LoadStats& s : per) all.merge(s);
  return all;
}

/// Open loop: request j is due at start + j / rate whatever the daemon
/// does, sent on connection j % connections (pipelined). Latency runs
/// from the due time to the response; lateness from due time to send.
LoadStats open_loop(const Traffic& traffic, std::uint16_t port,
                    unsigned connections, double rate, double seconds,
                    std::size_t first) {
  const std::size_t total = static_cast<std::size_t>(rate * seconds);
  std::vector<LoadStats> per(connections);
  std::vector<std::thread> threads;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  const auto due_of = [&](std::size_t j) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(
                           static_cast<double>(j) / rate));
  };
  for (unsigned c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      LoadStats& mine = per[c];
      Connection conn(port);
      struct Pending {
        Clock::time_point due;
        std::uint32_t kind;
      };
      std::deque<Pending> pending;
      std::size_t next = c;
      bool broken = !conn.ok();
      while (!broken && (next < total || !pending.empty())) {
        const Clock::time_point now = Clock::now();
        if (next < total && due_of(next) <= now) {
          const std::uint32_t kind =
              traffic.sequence[(first + next) % traffic.sequence.size()];
          mine.lateness_us.push_back(
              std::chrono::duration<double, std::micro>(now - due_of(next))
                  .count());
          ++mine.attempted;
          if (!conn.send_all(traffic.kinds[kind].wire)) {
            ++mine.failed;
            broken = true;
            break;
          }
          pending.push_back({due_of(next), kind});
          next += connections;
          continue;
        }
        // Wait for a response or the next due time, whichever is first.
        timespec wait{};
        if (next < total) {
          const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                              due_of(next) - now)
                              .count();
          wait.tv_sec = static_cast<time_t>(ns / 1000000000);
          wait.tv_nsec = static_cast<long>(ns % 1000000000);
        } else {
          wait.tv_sec = kIoTimeoutMs / 1000;
        }
        pollfd pfd{conn.fd(), POLLIN, 0};
        const int ready = ::ppoll(&pfd, 1, &wait, nullptr);
        if (ready < 0 || (ready == 0 && next >= total) ||
            (ready > 0 && !conn.fill(0))) {
          broken = true;  // error, EOF, or responses stopped coming
          break;
        }
        bool bad = false;
        while (auto response = conn.take_response(&bad)) {
          if (pending.empty()) {
            bad = true;
            break;
          }
          const Pending p = pending.front();
          pending.pop_front();
          const double latency_us =
              std::chrono::duration<double, std::micro>(Clock::now() - p.due)
                  .count();
          Observed seen;
          if (observe(*response, p.kind, latency_us, &seen)) {
            mine.observed.push_back(seen);
          } else {
            ++mine.failed;
          }
        }
        if (bad) broken = true;
      }
      // Everything unanswered or never sent counts as failed.
      mine.failed += pending.size();
      for (std::size_t j = next; j < total; j += connections) {
        ++mine.attempted;
        ++mine.failed;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LoadStats all;
  all.elapsed_s = seconds_since(start);
  for (const LoadStats& s : per) all.merge(s);
  return all;
}

/// The in-process handler's body for every kind in `kinds`, computed on
/// `threads` threads with a cache-less handler (always a fresh render).
std::unordered_map<std::uint32_t, std::uint64_t> expected_bodies(
    const Traffic& traffic, const truststore::RootStore& roots,
    const std::vector<std::uint32_t>& kinds, unsigned threads) {
  std::vector<std::uint64_t> hashes(kinds.size(), 0);
  service::HandlerOptions options;
  options.roots = &roots;
  service::ResultCache no_cache(0);
  service::Metrics metrics;
  service::RequestHandler handler(options, &no_cache, &metrics);
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1); i < kinds.size();
           i = next.fetch_add(1)) {
        const std::string& wire = traffic.kinds[kinds[i]].wire;
        auto request = net::parse_request(wire);
        if (!request.ok()) continue;
        const net::HttpResponse response = handler.handle(request.value());
        if (response.status == 200) {
          hashes[i] = fnv1a(response.body.data(), response.body.size());
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  std::unordered_map<std::uint32_t, std::uint64_t> out;
  for (std::size_t i = 0; i < kinds.size(); ++i) out[kinds[i]] = hashes[i];
  return out;
}

/// Compares every observed body with the in-process handler's; returns
/// the number of mismatching responses.
std::uint64_t check_bodies(const Traffic& traffic,
                           const truststore::RootStore& roots,
                           const std::vector<const LoadStats*>& loads,
                           const Options& options) {
  std::vector<std::uint32_t> kinds;
  std::unordered_set<std::uint32_t> seen;
  for (const LoadStats* load : loads) {
    for (const Observed& o : load->observed) {
      if (seen.insert(o.kind).second) kinds.push_back(o.kind);
    }
  }
  auto expected = expected_bodies(traffic, roots, kinds, options.threads);
  if (options.inject == Inject::kTamperBody && !kinds.empty()) {
    expected[kinds.front()] ^= 1;
  }
  std::uint64_t mismatches = 0;
  std::uint64_t hit_mismatches = 0;
  for (const LoadStats* load : loads) {
    for (const Observed& o : load->observed) {
      if (o.body_hash == expected[o.kind]) continue;
      ++mismatches;
      if (o.hit) ++hit_mismatches;
    }
  }
  std::printf("bodies: %zu distinct requests checked against the in-process "
              "handler, %llu mismatches (%llu on cache hits)\n",
              kinds.size(), static_cast<unsigned long long>(mismatches),
              static_cast<unsigned long long>(hit_mismatches));
  return mismatches;
}

/// A number inside /v1/stats: the value of the last key in `path`,
/// each key searched after the previous one.
double stats_number(const std::string& body,
                    std::initializer_list<const char*> path) {
  std::size_t pos = 0;
  for (const char* key : path) {
    const std::string needle = std::string("\"") + key + "\"";
    pos = body.find(needle, pos);
    if (pos == std::string::npos) return 0.0;
    pos += needle.size();
  }
  pos = body.find(':', pos);
  return pos == std::string::npos ? 0.0
                                  : std::strtod(body.c_str() + pos + 1, nullptr);
}

std::string daemon_stats(std::uint16_t port) {
  Connection conn(port);
  net::HttpRequest req;
  req.target = "/v1/stats";
  req.host = "127.0.0.1";
  const auto response = conn.round_trip(req.encode());
  if (!response.has_value()) return {};
  return std::string(response->body.begin(), response->body.end());
}

double hit_ratio(const LoadStats& load) {
  std::size_t hits = 0;
  for (const Observed& o : load.observed) hits += o.hit ? 1 : 0;
  return load.observed.empty() ? 0.0
                               : static_cast<double>(hits) /
                                     static_cast<double>(load.observed.size());
}

struct Setup {
  std::unique_ptr<dataset::Corpus> corpus;
  Traffic traffic;
  Daemon daemon;
};

}  // namespace

RunResult run_chaind(const Options& options) {
  RunResult result;
  const std::string roots_pem = options.tmp_dir + "/roots.pem";
  std::vector<double> setups;
  std::unique_ptr<Setup> setup;
  const int setup_repeats = options.trace ? 1 : kSetupRepeats;
  for (int i = 0; i < setup_repeats; ++i) {
    setup.reset();
    const Clock::time_point start = Clock::now();
    setup = std::make_unique<Setup>();
    dataset::CorpusConfig config;
    config.seed = options.seed;
    config.domain_count = kDomains;
    setup->corpus = std::make_unique<dataset::Corpus>(std::move(config));
    setup->traffic = make_traffic(*setup->corpus, options.seed);
    {
      std::ofstream out(roots_pem);
      for (const x509::CertPtr& root :
           setup->corpus->stores().union_store.roots()) {
        out << x509::to_pem(*root);
      }
    }
    if (!setup->daemon.start(options.chaind_path, roots_pem, options.tmp_dir,
                             options.threads)) {
      std::fprintf(stderr, "chaind: the daemon did not start (%s)\n",
                   options.chaind_path.c_str());
      result.fail();
      return result;
    }
    setups.push_back(seconds_since(start));
  }
  const Traffic& traffic = setup->traffic;
  const std::uint16_t port = setup->daemon.port();
  // The same anchors as the daemon's --roots file, in process.
  truststore::RootStore roots("chaind");
  for (const x509::CertPtr& root : setup->corpus->stores().union_store.roots()) {
    roots.add(root);
  }
  const service::ServerConfig shipped;
  std::printf("chaind: pid %d on 127.0.0.1:%u, %zu chains, %zu request "
              "kinds, zipf s=%.1f, %.0f%% lint, shipped cache %zu entries "
              "and queue %zu\n",
              setup->daemon.pid(), port, traffic.chains.size(),
              traffic.kinds.size(), kZipfExponent, kLintShare * 100.0,
              shipped.cache_capacity, shipped.queue_capacity);

  // Warm-up, a fixed amount of work: every distinct request once, then
  // the first kWarmupRequests of the Zipf stream. The daemon's heap keeps
  // growing slowly with the number of requests served, so its peak RSS is
  // read here, after the same work on every machine, rather than after a
  // timed phase whose request count follows the machine's speed.
  std::vector<std::uint32_t> every_kind(traffic.kinds.size());
  for (std::size_t k = 0; k < every_kind.size(); ++k) {
    every_kind[k] = static_cast<std::uint32_t>(k);
  }
  std::atomic<std::size_t> cursor{0};
  const LoadStats warmup = [&] {
    std::atomic<std::size_t> prime_cursor{0};
    LoadStats all =
        closed_loop(traffic, every_kind, port, options.threads, kWarmupLimitS,
                    prime_cursor, every_kind.size());
    all.merge(closed_loop(traffic, traffic.sequence, port, options.threads,
                          kWarmupLimitS, cursor, kWarmupRequests));
    return all;
  }();
  const double warm_rss = peak_rss_mib(setup->daemon.pid());
  // The closed loop carries the gated figures, so it gets most of the
  // run; the open loop's figures are reported beside them.
  const double closed_s = options.seconds * 0.6;
  const double open_s = options.seconds - closed_s;

  if (!options.trace) {
    const double cpu_before = cpu_seconds(setup->daemon.pid());
    const LoadStats closed =
        closed_loop(traffic, traffic.sequence, port, options.threads, closed_s,
                    cursor);
    const double daemon_cpu_s = cpu_seconds(setup->daemon.pid()) - cpu_before;
    const LoadStats open = open_loop(traffic, port, options.threads,
                                     kOpenLoopRate, open_s, cursor.load());
    const std::string stats = daemon_stats(port);
    const double end_rss = peak_rss_mib(setup->daemon.pid());
    setup->daemon.stop();

    for (const LoadStats* load : {&warmup, &closed, &open}) {
      result.attempted += load->attempted;
      if (load->failed > 0) result.fail(load->failed);
    }
    const std::uint64_t mismatches =
        check_bodies(traffic, roots, {&warmup, &closed, &open}, options);
    if (mismatches > 0) result.fail(mismatches);

    const double req_per_s = windowed_rate(closed, closed_s);
    add_setup(result, setups);
    result.add("chains_per_s", req_per_s, "1/s");
    result.add("p50_ms", windowed_latency_ms(closed, closed_s, 0.50), "ms");
    result.add("p99_ms", windowed_latency_ms(closed, closed_s, 0.99), "ms");
    result.add("peak_rss_mib", warm_rss, "MiB");
    result.add("req_per_s", req_per_s, "1/s");
    result.add("latency_samples", static_cast<double>(closed.attempted),
               "count");
    result.add("peak_rss_end_mib", end_rss, "MiB");
    result.add("closed_loop_hit_ratio", hit_ratio(closed), "fraction");
    result.add("daemon_cpu_us_per_request",
               daemon_cpu_s * 1e6 / static_cast<double>(closed.observed.size()),
               "us");
    result.add("open_loop_rate", kOpenLoopRate, "1/s");
    result.add("open.p50_ms", latency_ms(open, 0.50), "ms");
    result.add("open.p99_ms", latency_ms(open, 0.99), "ms");
    result.add("open.samples", static_cast<double>(open.attempted), "count");
    result.add("gen.lateness_p99_ms", quantile(open.lateness_us, 0.99) / 1000.0,
               "ms");
    result.add("service.queue_wait_p99_ms",
               stats_number(stats, {"queue_wait_us", "p99_us"}) / 1000.0, "ms");
    return result;
  }

  // --- traced ------------------------------------------------------------
  // Daemon side first: round trips split on x-cache, the daemon's own
  // queue and cache counters, and how late the open-loop generator ran.
  const LoadStats closed =
      closed_loop(traffic, traffic.sequence, port, options.threads,
                  closed_s / 2.0, cursor);
  const LoadStats open = open_loop(traffic, port, options.threads,
                                   kOpenLoopRate, open_s / 2.0, cursor.load());
  const std::string stats = daemon_stats(port);
  setup->daemon.stop();
  for (const LoadStats* load : {&warmup, &closed, &open}) {
    result.attempted += load->attempted;
    if (load->failed > 0) result.fail(load->failed);
  }
  const std::uint64_t mismatches =
      check_bodies(traffic, roots, {&warmup, &closed, &open}, options);
  if (mismatches > 0) result.fail(mismatches);

  std::vector<double> rtt_hit, rtt_miss;
  for (const Observed& o : closed.observed) {
    (o.hit ? rtt_hit : rtt_miss).push_back(o.latency_us);
  }

  // In process: the same request sequence through a handler with the
  // daemon's cache size, twice from cold memos — once with one timer
  // around the loop (untraced), once with per-call timers split on
  // x-cache (traced). Then the misses decomposed call by call.
  std::vector<std::map<std::string, double>> walks;
  std::vector<WorkCounts> rounds;
  std::vector<const chain::ChainObservation*> sample(
      traffic.chains.begin(),
      traffic.chains.begin() +
          static_cast<std::ptrdiff_t>(std::min<std::size_t>(
              traffic.chains.size(), 1000)));
  service::HandlerOptions handler_options;
  handler_options.roots = &roots;
  chain::CompletenessOptions completeness;
  completeness.store = &roots;
  completeness.aia_enabled = false;
  const chain::ComplianceAnalyzer analyzer(completeness);
  const lint::Linter linter(lint::LintOptions{0});
  std::vector<pathbuild::PathBuilder> builders;
  builders.emplace_back(pathbuild::BuildPolicy{}, &roots);
  builders.back().set_cache_learning(false);
  const std::vector<std::string> builder_names = {"handler"};

  std::vector<net::HttpRequest> requests;
  std::vector<const RequestKind*> request_kinds;
  for (std::size_t j = 0; j < kTracedRequests; ++j) {
    const RequestKind& kind = traffic.kinds[traffic.sequence[j]];
    auto parsed = net::parse_request(kind.wire);
    if (!parsed.ok()) {
      result.fail();
      continue;
    }
    requests.push_back(std::move(parsed).value());
    request_kinds.push_back(&kind);
  }

  const Clock::time_point begin = Clock::now();
  while (seconds_since(begin) < options.seconds / 2.0 ||
         static_cast<int>(walks.size()) < 2) {
    LayerStats s;
    double untraced = 0.0;
    {
      reset_memos(nullptr);
      service::ResultCache cache(shipped.cache_capacity, shipped.cache_shards);
      service::Metrics metrics;
      service::RequestHandler handler(handler_options, &cache, &metrics);
      const Clock::time_point start = Clock::now();
      for (const net::HttpRequest& request : requests) handler.handle(request);
      untraced = seconds_since(start);
    }
    std::vector<bool> missed;
    {
      reset_memos(nullptr);
      service::ResultCache cache(shipped.cache_capacity, shipped.cache_shards);
      service::Metrics metrics;
      service::RequestHandler handler(handler_options, &cache, &metrics);
      for (std::size_t j = 0; j < requests.size(); ++j) {
        const Clock::time_point start = Clock::now();
        const net::HttpResponse response = handler.handle(requests[j]);
        const double elapsed = seconds_since(start);
        const auto cache_header = response.headers.find("x-cache");
        const bool hit = cache_header != response.headers.end() &&
                         cache_header->second == "hit";
        LayerTimer& timer = hit ? s.handler_hit : s.handler_miss;
        timer.total_s += elapsed;
        ++timer.calls;
        missed.push_back(!hit);
        const std::string& wire = request_kinds[j]->wire;
        timed(s.frame, [&] {
          auto frame = net::probe_request_frame(wire);
          return frame.ok() && net::parse_request(wire).ok();
        });
      }
    }
    const double traced = s.handler_hit.total_s + s.handler_miss.total_s;

    // The misses, call by call, from cold memos. The counters cover the
    // analysis and the builds; the analyzer check runs afterwards.
    reset_memos(nullptr);
    std::vector<std::pair<const chain::ChainObservation*,
                          chain::ComplianceReport>>
        composed;
    for (std::size_t j = 0; j < requests.size(); ++j) {
      if (!missed[j]) continue;
      const RequestKind& kind = *request_kinds[j];
      const chain::ChainObservation& obs = *traffic.chains[kind.record];
      timed(s.decode_body,
            [&] { return service::decode_chain_body(requests[j].body); });
      const CounterSnapshot before = CounterSnapshot::take(nullptr, nullptr);
      chain::ComplianceReport report =
          analyze_layers(obs, completeness, true, s);
      if (!kind.lint) {
        build_layers(builders, builder_names, obs.certificates, obs.domain,
                     true, s);
      }
      s.add_counters(before, CounterSnapshot::take(nullptr, nullptr));
      timed(s.lint, [&] { return linter.lint(obs, report); });
      composed.emplace_back(&obs, std::move(report));
    }
    for (const auto& [obs, report] : composed) {
      if (!same_report(report, analyzer.analyze(*obs))) ++s.mismatches;
    }
    rounds.push_back(WorkCounts{{{"issued_by_lookups", s.issued_lookups},
                                 {"signature_checks", s.signature_checks},
                                 {"verifications", s.verifications},
                                 {"build_steps", s.steps},
                                 {"misses", s.handler_miss.calls}}});

    LayerStats probe;
    reset_memos(nullptr);
    probe_layers(sample, roots, probe);
    s.parse = probe.parse;
    s.parse_records = probe.parse_records;
    s.verify = probe.verify;
    s.mismatches += probe.mismatches;

    std::map<std::string, double> values = layer_values(s);
    values["trace.overhead_frac"] = traced / untraced - 1.0;
    values["engine.busy_frac"] = 0.0;
    values["service.cache_hit_ratio"] =
        stats_number(stats, {"cache", "hit_ratio"});
    values["service.rejected_busy"] =
        stats_number(stats, {"responses", "rejected_busy"});
    values["service.evictions"] = stats_number(stats, {"cache", "evictions"});
    values["service.queue_wait_p50_ms"] =
        stats_number(stats, {"queue_wait_us", "p50_us"}) / 1000.0;
    values["service.queue_wait_p99_ms"] =
        stats_number(stats, {"queue_wait_us", "p99_us"}) / 1000.0;
    const double rtt_hit_us = median(rtt_hit);
    const double rtt_miss_us = median(rtt_miss);
    values["service.rtt_hit_us"] = rtt_hit_us;
    values["service.rtt_miss_us"] = rtt_miss_us;
    const double h = hit_ratio(closed);
    values["service.transport_us"] =
        h * (rtt_hit_us - s.handler_hit.mean_us()) +
        (1.0 - h) * (rtt_miss_us - s.handler_miss.mean_us());
    values["gen.lateness_p99_ms"] = quantile(open.lateness_us, 0.99) / 1000.0;
    walks.push_back(std::move(values));
    result.attempted += requests.size();
    if (s.mismatches > 0) {
      std::printf("TRACE MISMATCH: %llu composed results differ from the "
                  "library's\n",
                  static_cast<unsigned long long>(s.mismatches));
      result.fail(s.mismatches);
    }
  }
  if (options.inject == Inject::kPerturbCount && !rounds.empty()) {
    rounds.back().counts.begin()->second += 1;
  }
  const std::size_t divergent = check_counts("chaind traced walks", rounds);
  if (divergent > 0) result.fail(divergent);
  add_layer_medians(walks, result);
  return result;
}

}  // namespace chainbench
