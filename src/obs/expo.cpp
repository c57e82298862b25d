#include "obs/expo.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "obs/log.hpp"
#include "obs/timer.hpp"

namespace rups::obs {

namespace {

/// Format a double the Prometheus way: integral values without exponent
/// noise, everything else with full round-trip precision.
std::string num(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[40];
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

/// Prometheus label-value escaping: backslash, double-quote, newline.
std::string escape_label_value(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

/// One snapshot cell name decomposed: `fam{key="value"}` (the
/// family_cell_name shape) or a plain flat name.
struct CellName {
  std::string base;   ///< sanitised family/metric name
  std::string label;  ///< `key="escaped value"` or empty for flat metrics
};

CellName split_cell_name(const std::string& name) {
  CellName out;
  const std::size_t brace = name.find('{');
  if (brace == std::string::npos || name.back() != '}') {
    out.base = sanitize_metric_name(name);
    return out;
  }
  // family_cell_name emits  fam{key="value"}  with the value raw; pick the
  // key up to '=' and the value between the outermost quotes.
  const std::size_t eq = name.find('=', brace);
  const std::size_t open_quote = name.find('"', brace);
  const std::size_t close_quote = name.rfind('"');
  if (eq == std::string::npos || open_quote == std::string::npos ||
      close_quote <= open_quote || eq > open_quote) {
    out.base = sanitize_metric_name(name);  // not a family cell; flatten
    return out;
  }
  out.base = sanitize_metric_name(name.substr(0, brace));
  const std::string key =
      sanitize_metric_name(name.substr(brace + 1, eq - brace - 1));
  const std::string value =
      name.substr(open_quote + 1, close_quote - open_quote - 1);
  out.label = key + "=\"" + escape_label_value(value) + "\"";
  return out;
}

void type_header(std::string& out, std::string& last_base,
                 const std::string& base, const char* type) {
  if (base == last_base) return;
  last_base = base;
  out += "# TYPE " + base + " " + type + "\n";
}

/// " <value>\n" after a sample name. Appended piecewise: GCC 12
/// misreports `" " + std::string` here as an overlapping memcpy
/// (-Wrestrict) once inlined.
void append_value(std::string& out, const std::string& value) {
  out += ' ';
  out += value;
  out += '\n';
}

}  // namespace

std::string sanitize_metric_name(std::string_view name) {
  std::string out;
  out.reserve(name.size() + 1);
  // An empty name or a leading digit gets a '_' prefix. Decided up front:
  // GCC 12 misreports a later insert at begin() as an overlapping memcpy
  // (-Wrestrict) once this is inlined.
  if (name.empty() || (name[0] >= '0' && name[0] <= '9')) out.push_back('_');
  for (const char c : name) {
    const bool legal = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(legal ? c : '_');
  }
  return out;
}

std::string render_prometheus(const MetricsSnapshot& snap) {
  std::string out;
  std::string last_base;

  for (const CounterSample& c : snap.counters) {
    const CellName cell = split_cell_name(c.name);
    type_header(out, last_base, cell.base, "counter");
    out += cell.base;
    if (!cell.label.empty()) out += "{" + cell.label + "}";
    append_value(out, std::to_string(c.value));
  }

  last_base.clear();
  for (const GaugeSample& g : snap.gauges) {
    const CellName cell = split_cell_name(g.name);
    type_header(out, last_base, cell.base, "gauge");
    out += cell.base;
    if (!cell.label.empty()) out += "{" + cell.label + "}";
    append_value(out, num(g.value));
  }

  last_base.clear();
  for (const HistogramSample& h : snap.histograms) {
    const CellName cell = split_cell_name(h.name);
    type_header(out, last_base, cell.base, "histogram");
    const std::string extra =
        cell.label.empty() ? std::string() : cell.label + ",";
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      cumulative += h.buckets[b];
      const std::string le =
          b < h.bounds.size() ? num(h.bounds[b]) : std::string("+Inf");
      out += cell.base + "_bucket{" + extra + "le=\"" + le + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    if (h.buckets.empty()) {
      out += cell.base + "_bucket{" + extra + "le=\"+Inf\"} " +
             std::to_string(h.count) + "\n";
    }
    out += cell.base + "_sum";
    if (!cell.label.empty()) out += "{" + cell.label + "}";
    append_value(out, num(h.sum));
    out += cell.base + "_count";
    if (!cell.label.empty()) out += "{" + cell.label + "}";
    append_value(out, std::to_string(h.count));
  }

  return out;
}

std::map<std::string, double> parse_prometheus(const std::string& text) {
  std::map<std::string, double> out;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string_view line(text.data() + start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;

    // The value is everything after the last space OUTSIDE the label
    // braces; label values may themselves contain spaces.
    std::size_t split = std::string_view::npos;
    int depth = 0;
    bool in_quotes = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
      const char c = line[i];
      if (in_quotes) {
        if (c == '\\') ++i;
        else if (c == '"') in_quotes = false;
        continue;
      }
      if (c == '"') in_quotes = true;
      else if (c == '{') ++depth;
      else if (c == '}') --depth;
      else if (c == ' ' && depth == 0) split = i;
    }
    if (split == std::string_view::npos || split + 1 >= line.size()) {
      throw std::runtime_error("prometheus: malformed sample line: " +
                               std::string(line));
    }
    const std::string name(line.substr(0, split));
    const std::string value_text(line.substr(split + 1));
    char* parse_end = nullptr;
    const double value = std::strtod(value_text.c_str(), &parse_end);
    if (parse_end == value_text.c_str()) {
      throw std::runtime_error("prometheus: bad sample value: " +
                               std::string(line));
    }
    out[name] = value;
  }
  return out;
}

namespace {

bool send_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

void send_response(int fd, int status, const char* reason,
                   const char* content_type, const std::string& body) {
  char header[256];
  std::snprintf(header, sizeof(header),
                "HTTP/1.0 %d %s\r\n"
                "Content-Type: %s\r\n"
                "Content-Length: %zu\r\n"
                "Connection: close\r\n\r\n",
                status, reason, content_type, body.size());
  if (send_all(fd, header, std::strlen(header))) {
    (void)send_all(fd, body.data(), body.size());
  }
}

}  // namespace

int http_get(const std::string& host, std::uint16_t port,
             const std::string& path, std::string& body) {
  body.clear();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }

  const std::string request = "GET " + path +
                              " HTTP/1.0\r\nHost: " + host +
                              "\r\nConnection: close\r\n\r\n";
  if (!send_all(fd, request.data(), request.size())) {
    ::close(fd);
    return -1;
  }

  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);

  int status = -1;
  if (std::sscanf(response.c_str(), "HTTP/%*s %d", &status) != 1) return -1;
  const std::size_t blank = response.find("\r\n\r\n");
  if (blank != std::string::npos) body = response.substr(blank + 4);
  return status;
}

MetricsExporter::MetricsExporter(Options options, SnapshotFn snapshot,
                                 HealthFn health)
    : options_(std::move(options)),
      snapshot_(std::move(snapshot)),
      health_(std::move(health)) {}

MetricsExporter::~MetricsExporter() { stop(); }

std::uint64_t MetricsExporter::requests() const noexcept {
  return requests_.load(std::memory_order_relaxed);
}

bool MetricsExporter::start() {
  if (running_) return true;

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    RUPS_LOG(kWarn) << "exporter: socket() failed: "
                              << std::strerror(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    RUPS_LOG(kWarn) << "exporter: bad host " << options_.host;
    ::close(fd);
    return false;
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 8) != 0) {
    RUPS_LOG(kWarn)
        << "exporter: cannot serve on " << options_.host << ":"
        << options_.port << ": " << std::strerror(errno);
    ::close(fd);
    return false;
  }

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    bound_port_ = ntohs(bound.sin_port);
  }

  listen_fd_ = fd;
  stop_requested_.store(false, std::memory_order_relaxed);
  running_ = true;
  thread_ = std::thread([this] { run(); });
  return true;
}

void MetricsExporter::stop() {
  if (!running_) return;
  stop_requested_.store(true, std::memory_order_relaxed);
  thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  running_ = false;
}

void MetricsExporter::run() {
  set_thread_label("rups exporter");
  for (;;) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 100 /*ms*/);
    if (stop_requested_.load(std::memory_order_relaxed)) return;
    if (ready <= 0) continue;
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
    handle(client);
    ::close(client);
  }
}

void MetricsExporter::handle(int client) {
  // Read the request head (we only need the request line; HTTP/1.0, no
  // keep-alive, bodies are ignored).
  std::string request;
  char buf[2048];
  while (request.find("\r\n") == std::string::npos &&
         request.size() < 16 * 1024) {
    const ssize_t n = ::recv(client, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    request.append(buf, static_cast<std::size_t>(n));
  }
  requests_.fetch_add(1, std::memory_order_relaxed);

  char method[8] = {0};
  char path[256] = {0};
  if (std::sscanf(request.c_str(), "%7s %255s", method, path) != 2 ||
      std::strcmp(method, "GET") != 0) {
    send_response(client, 400, "Bad Request", "text/plain",
                  "bad request\n");
    return;
  }

  if (std::strcmp(path, "/metrics") == 0) {
    send_response(client, 200, "OK",
                  "text/plain; version=0.0.4; charset=utf-8",
                  render_prometheus(snapshot_ ? snapshot_()
                                              : MetricsSnapshot{}));
  } else if (std::strcmp(path, "/healthz") == 0) {
    const HealthReport report = health_ ? health_() : HealthReport{};
    send_response(client, report.healthy() ? 200 : 503,
                  report.healthy() ? "OK" : "Service Unavailable",
                  "application/json", report.to_json() + "\n");
  } else {
    send_response(client, 404, "Not Found", "text/plain",
                  "try /metrics or /healthz\n");
  }
}

}  // namespace rups::obs
