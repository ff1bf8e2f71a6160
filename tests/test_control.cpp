// Control-socket tests: runtime configuration of a live daemon over the
// UNIX domain socket (the paper's ldmsd control path), including the
// on-the-fly interval change, error replies, and the new sampler plugins
// driven end-to-end through the command language. The framing tests pin the
// client's reply reader (SendCommand) against large, dribbled, unterminated
// and empty replies, and the server's idle-client timeout.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <future>
#include <thread>

#include "core/mem_manager.hpp"
#include "core/metric_set.hpp"
#include "core/schema.hpp"
#include "daemon/control.hpp"
#include "sampler/samplers.hpp"
#include "sim/cluster.hpp"
#include "store/tsdb/tsdb_store.hpp"

namespace ldmsxx {
namespace {

class ControlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_ = std::make_unique<sim::SimCluster>(
        sim::ClusterConfig::Chama(1));
    cluster_->Tick(kNsPerSec);
    RegisterBuiltinSamplers(cluster_->MakeDataSource(0));
    RegisterBuiltinStores();

    LdmsdOptions opts;
    opts.name = "ctl-test";
    opts.worker_threads = 1;
    daemon_ = std::make_unique<Ldmsd>(opts);
    ASSERT_TRUE(daemon_->Start().ok());

    socket_path_ =
        "/tmp/ldmsxx_ctl_" + std::to_string(::getpid()) + ".sock";
    control_ = std::make_unique<ControlServer>(*daemon_, socket_path_);
    ASSERT_TRUE(control_->Start().ok());
  }

  void TearDown() override {
    control_->Stop();
    daemon_->Stop();
  }

  Status Send(const std::string& command, std::string* reply = nullptr) {
    std::string local;
    return ControlServer::SendCommand(socket_path_, command,
                                      reply != nullptr ? reply : &local);
  }

  std::unique_ptr<sim::SimCluster> cluster_;
  std::unique_ptr<Ldmsd> daemon_;
  std::unique_ptr<ControlServer> control_;
  std::string socket_path_;
};

TEST_F(ControlTest, SocketIsOwnerOnly) {
  struct stat st{};
  ASSERT_EQ(::stat(socket_path_.c_str(), &st), 0);
  EXPECT_EQ(st.st_mode & 0777, 0600u) << "paper's UNIX-socket access control";
}

TEST_F(ControlTest, LoadConfigStartOverSocket) {
  std::string reply;
  ASSERT_TRUE(Send("load name=meminfo", &reply).ok());
  EXPECT_EQ(reply, "OK");
  ASSERT_TRUE(Send("config name=meminfo producer=nid0 component_id=3").ok());
  ASSERT_TRUE(Send("start name=meminfo interval=20000").ok());
  EXPECT_NE(daemon_->sets().Find("nid0/meminfo"), nullptr);

  // Sampling actually runs.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_GT(daemon_->counters().samples.load(), 2u);
  EXPECT_GE(control_->commands_served(), 3u);
}

TEST_F(ControlTest, OnTheFlyIntervalChangeOverSocket) {
  ASSERT_TRUE(Send("load name=procstat").ok());
  ASSERT_TRUE(Send("config name=procstat producer=nid0").ok());
  ASSERT_TRUE(Send("start name=procstat interval=3600000000").ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(daemon_->counters().samples.load(), 0u);
  ASSERT_TRUE(Send("interval name=procstat interval=10000").ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_GT(daemon_->counters().samples.load(), 5u);
}

TEST_F(ControlTest, ErrorsAreReported) {
  std::string reply;
  Status st = Send("start name=never_loaded interval=1000", &reply);
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(reply.rfind("ERROR", 0) == 0) << reply;
  st = Send("gibberish", &reply);
  EXPECT_FALSE(st.ok());
  // tree_status requires an attached TreeManager (tree-mode roots only).
  st = Send("tree_status", &reply);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(reply.find("no aggregation tree"), std::string::npos) << reply;
  // The daemon survives bad commands.
  EXPECT_TRUE(Send("load name=meminfo").ok());
}

TEST_F(ControlTest, NewSamplersViaCommandLanguage) {
  for (const char* plugin : {"vmstat", "diskstats", "cray_power"}) {
    ASSERT_TRUE(Send(std::string("load name=") + plugin).ok()) << plugin;
    ASSERT_TRUE(
        Send(std::string("config name=") + plugin + " producer=nid0").ok());
    ASSERT_TRUE(
        Send(std::string("start name=") + plugin + " interval=20000").ok());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  auto vmstat = daemon_->sets().Find("nid0/vmstat");
  ASSERT_NE(vmstat, nullptr);
  const auto pgfault = vmstat->schema().FindMetric("pgfault");
  ASSERT_TRUE(pgfault.has_value());
  EXPECT_GT(vmstat->GetU64(*pgfault), 0u);

  auto disk = daemon_->sets().Find("nid0/diskstats");
  ASSERT_NE(disk, nullptr);
  EXPECT_EQ(disk->schema().metric_count(), 4u);

  auto power = daemon_->sets().Find("nid0/cray_power");
  ASSERT_NE(power, nullptr);
  const auto watts = power->schema().FindMetric("power");
  ASSERT_TRUE(watts.has_value());
  EXPECT_GT(power->GetD64(*watts), 50.0);   // above idle floor
  EXPECT_LT(power->GetD64(*watts), 1000.0);
}

TEST_F(ControlTest, StorePolicyStatusAndCountersOverSocket) {
  std::string reply;
  ASSERT_TRUE(Send("strgp_add plugin=store_mem name=primary queue=16 "
                   "shed=drop_newest breaker_k=3 breaker_min=1000 "
                   "breaker_max=100000",
                   &reply)
                  .ok());
  EXPECT_EQ(reply, "OK");
  EXPECT_FALSE(Send("strgp_add plugin=store_mem shed=banana").ok());
  EXPECT_FALSE(Send("strgp_add plugin=no_such_store").ok());

  // The fault-injecting decorator is a plugin too (disk-failure drills from
  // a config script); wrapping an unknown inner store is rejected.
  ASSERT_TRUE(Send("strgp_add plugin=store_fault inner=store_mem seed=7 "
                   "name=flaky fail_permille=250")
                  .ok());
  EXPECT_FALSE(Send("strgp_add plugin=store_fault inner=no_such_store").ok());

  ASSERT_TRUE(Send("strgp_status", &reply).ok());
  EXPECT_EQ(reply, "OK primary flaky");
  ASSERT_TRUE(Send("strgp_status name=primary", &reply).ok());
  EXPECT_NE(reply.find("state=closed"), std::string::npos) << reply;
  EXPECT_NE(reply.find("queue=0"), std::string::npos) << reply;
  EXPECT_NE(reply.find("shed=0"), std::string::npos) << reply;
  EXPECT_FALSE(Send("strgp_status name=missing", &reply).ok());
  EXPECT_TRUE(reply.rfind("ERROR", 0) == 0) << reply;

  ASSERT_TRUE(Send("counters", &reply).ok());
  for (const char* key :
       {"samples=", "stores=", "store_failures=", "shed_samples=",
        "breaker_trips=", "breaker_recoveries=", "reconnects="}) {
    EXPECT_NE(reply.find(key), std::string::npos) << key << " in " << reply;
  }
}

TEST_F(ControlTest, PrdcrStatusReportsBatchCounters) {
  // Stand up a separate sampler daemon; the fixture daemon becomes the
  // aggregator and pulls from it, so prdcr_status and the new batch counters
  // can be observed over the control socket.
  LdmsdOptions sopts;
  sopts.name = "ctl-sampler";
  sopts.listen_transport = "local";
  sopts.listen_address = "ctl/prdcr-sampler";
  sopts.worker_threads = 1;
  Ldmsd sampler(sopts);
  SamplerConfig sc;
  sc.interval = 500 * kNsPerMs;  // slow: most aggregator pulls see no new DGN
  ASSERT_TRUE(
      sampler
          .AddSampler(std::make_shared<MeminfoSampler>(
                          cluster_->MakeDataSource(0)),
                      sc)
          .ok());
  ASSERT_TRUE(sampler.Start().ok());

  std::string reply;
  ASSERT_TRUE(Send("prdcr_status", &reply).ok());
  EXPECT_EQ(reply, "OK");  // no producers yet
  ASSERT_TRUE(Send("prdcr_add name=ctl-sampler xprt=local "
                   "host=ctl/prdcr-sampler interval=20000")
                  .ok());
  EXPECT_FALSE(Send("prdcr_status name=missing", &reply).ok());
  EXPECT_TRUE(reply.rfind("ERROR", 0) == 0) << reply;

  // Let a few collect cycles run; poll until batched updates show up.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  bool batched = false;
  while (std::chrono::steady_clock::now() < deadline && !batched) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    batched = daemon_->counters().updates_batched.load() > 3 &&
              daemon_->counters().updates_unchanged.load() > 0;
  }
  ASSERT_TRUE(batched) << "aggregator never reached batched steady state";

  ASSERT_TRUE(Send("prdcr_status", &reply).ok());
  EXPECT_EQ(reply, "OK ctl-sampler");
  ASSERT_TRUE(Send("prdcr_status name=ctl-sampler", &reply).ok());
  EXPECT_NE(reply.find("connected=1"), std::string::npos) << reply;
  EXPECT_NE(reply.find("sets=1"), std::string::npos) << reply;
  EXPECT_NE(reply.find("updates_batched="), std::string::npos) << reply;
  EXPECT_NE(reply.find("updates_unchanged="), std::string::npos) << reply;
  EXPECT_NE(reply.find("update_bytes_on_wire="), std::string::npos) << reply;
  // Non-zero values actually made it into the per-producer status.
  EXPECT_EQ(reply.find("updates_batched=0 "), std::string::npos) << reply;
  EXPECT_EQ(reply.find("update_bytes_on_wire=0 "), std::string::npos) << reply;

  ASSERT_TRUE(Send("counters", &reply).ok());
  for (const char* key :
       {"updates_batched=", "updates_unchanged=", "update_bytes_on_wire="}) {
    EXPECT_NE(reply.find(key), std::string::npos) << key << " in " << reply;
  }

  sampler.Stop();
}

TEST_F(ControlTest, ConnectToMissingSocketFails) {
  std::string reply;
  EXPECT_FALSE(
      ControlServer::SendCommand("/tmp/ldmsxx_nonexistent.sock", "x", &reply)
          .ok());
}

// --- reply framing ----------------------------------------------------------

/// Connect a UNIX stream socket to @p path; -1 on failure.
int ConnectUnix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// A one-shot stand-in for a daemon's control socket: accepts one client,
/// reads its command line, writes @p reply in @p piece-byte writes, then
/// closes. Lets the tests shape replies no real daemon would send.
class ScriptedServer {
 public:
  ScriptedServer(std::string reply, std::size_t piece)
      : path_("/tmp/ldmsxx_ctl_script_" + std::to_string(::getpid()) +
              ".sock") {
    ::unlink(path_.c_str());
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path_.c_str(), path_.size() + 1);
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof addr),
              0);
    EXPECT_EQ(::listen(listen_fd_, 1), 0);
    server_ = std::thread([this, reply = std::move(reply), piece] {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;
      char c;
      while (::recv(fd, &c, 1, 0) == 1 && c != '\n') {
      }
      for (std::size_t off = 0; off < reply.size(); off += piece) {
        const std::size_t n = std::min(piece, reply.size() - off);
        if (::send(fd, reply.data() + off, n, MSG_NOSIGNAL) !=
            static_cast<ssize_t>(n)) {
          break;
        }
        if (off % (64 * piece) == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      }
      ::close(fd);
    });
  }
  ~ScriptedServer() {
    server_.join();
    ::close(listen_fd_);
    ::unlink(path_.c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  int listen_fd_ = -1;
  std::thread server_;
};

TEST_F(ControlTest, QueryReplyLargerThan64KBArrivesIntact) {
  std::string dir = "/tmp/ldmsxx_ctl_big_XXXXXX";
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  TsdbOptions topts;
  topts.root_path = dir;
  auto tsdb = std::make_shared<TsdbStore>(topts);
  StorePolicy policy(tsdb);
  policy.name = "big";
  ASSERT_TRUE(daemon_->AddStorePolicy(std::move(policy)).ok());

  Schema schema("bigtest");
  schema.AddMetric("count", MetricType::kU64);
  schema.AddMetric("load", MetricType::kD64);
  MemManager mem(1 << 20);
  Status st;
  MetricSetPtr set =
      MetricSet::Create(mem, schema, "nid7/bigtest", "nid7", 7, &st);
  ASSERT_NE(set, nullptr) << st.ToString();
  constexpr std::uint64_t kRows = 3000;
  for (std::uint64_t i = 0; i < kRows; ++i) {
    set->BeginTransaction();
    set->SetU64(0, i * 1000003);
    set->SetD64(1, static_cast<double>(i) / 7.0);
    set->EndTransaction((i + 1) * kNsPerMs);
    ASSERT_TRUE(tsdb->StoreSet(*set).ok());
  }

  const std::string command = "query strgp=big table=bigtest limit=3000";
  std::string expected;
  ConfigProcessor direct(*daemon_);
  ASSERT_TRUE(direct.Execute(command, &expected).ok());
  std::string reply;
  ASSERT_TRUE(Send(command, &reply).ok()) << reply.substr(0, 200);
  EXPECT_GT(reply.size(), 64u * 1024);
  EXPECT_EQ(reply, "OK " + expected);
  EXPECT_NE(reply.find("rows=3000 "), std::string::npos);
}

TEST(ControlFramingTest, ReplyWrittenInSmallPiecesIsReassembled) {
  std::string line = "OK";
  for (int i = 0; i < 2000; ++i) line += " key" + std::to_string(i) + "=1";
  ScriptedServer server(line + "\n", 3);
  std::string reply;
  ASSERT_TRUE(ControlServer::SendCommand(server.path(), "counters", &reply)
                  .ok());
  EXPECT_EQ(reply, line);
}

TEST(ControlFramingTest, ReplyCutOffByEofIsReturnedAsIs) {
  ScriptedServer server("OK partial reply", 4);
  std::string reply;
  ASSERT_TRUE(ControlServer::SendCommand(server.path(), "counters", &reply)
                  .ok());
  EXPECT_EQ(reply, "OK partial reply");
}

TEST(ControlFramingTest, EofWithNoReplyIsDisconnected) {
  ScriptedServer server("", 1);
  std::string reply;
  const Status st =
      ControlServer::SendCommand(server.path(), "counters", &reply);
  EXPECT_EQ(st.code(), ErrorCode::kDisconnected) << st.ToString();
  EXPECT_TRUE(reply.empty());
}

TEST_F(ControlTest, SilentClientDoesNotWedgeTheSocket) {
  // The server serves one client at a time. A client that connects and
  // never sends a newline is dropped after the idle timeout, so the next
  // command still gets its answer.
  const int idle = ConnectUnix(socket_path_);
  ASSERT_GE(idle, 0);
  ASSERT_EQ(::send(idle, "coun", 4, MSG_NOSIGNAL), 4);
  auto answer = std::async(std::launch::async, [this] {
    std::string reply;
    const Status st = Send("counters", &reply);
    return st.ok() ? reply : st.ToString();
  });
  const bool answered =
      answer.wait_for(std::chrono::seconds(15)) == std::future_status::ready;
  ::close(idle);  // unwedges the server if the timeout is missing
  ASSERT_TRUE(answered) << "a silent client wedged the control socket";
  EXPECT_EQ(answer.get().rfind("OK samples=", 0), 0u);
}

}  // namespace
}  // namespace ldmsxx
