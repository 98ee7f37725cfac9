#include "probes.h"

#include <string_view>

#include "ledger.h"
#include "obiwan.h"
#include "test_objects.h"

namespace perfbench {
namespace {

using obiwan::Bytes;
using obiwan::BytesView;
using obiwan::ObjectId;
using obiwan::Result;
using obiwan::core::GetReply;
using obiwan::core::ObjectRecord;
using obiwan::core::ProxyDescriptor;
using obiwan::core::RefEntry;

class Echo final : public obiwan::net::MessageHandler {
 public:
  Result<Bytes> HandleRequest(const obiwan::net::Address&,
                              BytesView request) override {
    return Bytes(request.begin(), request.end());
  }
};

constexpr int kWarmup = 200;

ObjectRecord NodeRecord(std::uint64_t local, std::size_t payload,
                        RefEntry next) {
  obiwan::test::Node node;
  node.label = "n" + std::to_string(local);
  node.payload.assign(payload, static_cast<std::uint8_t>(local));
  node.value = static_cast<std::int64_t>(local);
  const obiwan::core::ClassInfo& info = node.obiwan_class();
  ObjectRecord rec;
  rec.id = ObjectId{1, local};
  rec.class_name = info.name();
  rec.version = 1;
  obiwan::wire::Writer fields;
  info.EncodeFields(node, fields);
  rec.fields = std::move(fields).Take();
  rec.refs.push_back(std::move(next));
  return rec;
}

ProxyDescriptor Descriptor(std::uint64_t local) {
  return ProxyDescriptor{obiwan::ProxyId{1, local}, "127.0.0.1:40000",
                         ObjectId{1, local}, "Node"};
}

// Median per-message encode and decode time over repeated batches, divided
// by the encoded size.
template <typename Message>
WireCost MeasureCodec(const Message& message, std::string_view shape,
                      const obiwan::TraceSinks* spans) {
  constexpr int kBatches = 200;
  constexpr int kPerBatch = 32;
  obiwan::wire::Writer sizing;
  obiwan::wire::Encode(sizing, message);
  const Bytes encoded = std::move(sizing).Take();
  const double bytes = static_cast<double>(encoded.size());

  Samples encode;
  Samples decode;
  std::size_t sink = 0;
  const std::string encode_name = "encode." + std::string(shape);
  const std::string decode_name = "decode." + std::string(shape);
  for (int b = 0; b < kBatches; ++b) {
    std::int64_t t0 = NowNs();
    {
      LayerSpan span(spans, "wire", encode_name);
      for (int i = 0; i < kPerBatch; ++i) {
        obiwan::wire::Writer w;
        obiwan::wire::Encode(w, message);
        sink += w.size();
      }
    }
    encode.Add((NowNs() - t0) / kPerBatch);
    t0 = NowNs();
    {
      LayerSpan span(spans, "wire", decode_name);
      for (int i = 0; i < kPerBatch; ++i) {
        obiwan::wire::Reader r(obiwan::AsView(encoded));
        const Message decoded = obiwan::wire::Decode<Message>(r);
        sink += r.ok() ? sizeof(decoded) : 0;
      }
    }
    decode.Add((NowNs() - t0) / kPerBatch);
  }
  if (sink == 0) return {};  // keeps the loops observable
  return {encode.Percentile(0.5) / bytes, decode.Percentile(0.5) / bytes};
}

}  // namespace

double EchoRttUs(std::size_t bytes, int requests,
                 const obiwan::TraceSinks* spans) {
  Echo echo;  // outlives the server that dispatches to it
  auto server = obiwan::net::TcpTransport::Create(0);
  auto client = obiwan::net::TcpTransport::Create(0);
  if (!server.ok() || !client.ok()) return 0.0;
  if (!(*server)->Serve(&echo).ok()) return 0.0;
  const obiwan::net::Address to = (*server)->LocalAddress();
  const Bytes payload(bytes, 0x5a);
  const std::string name = "echo." + std::to_string(bytes) + "B";
  Samples rtt;
  for (int i = 0; i < kWarmup + requests; ++i) {
    const std::int64_t t0 = NowNs();
    bool ok = false;
    {
      LayerSpan span(spans, "net", name);
      Result<Bytes> reply = (*client)->Request(to, payload);
      ok = reply.ok() && reply->size() == bytes;
    }
    if (ok && i >= kWarmup) rtt.Add(NowNs() - t0);
  }
  (*server)->StopServing();
  return rtt.Percentile(0.5) / 1e3;
}

double PingRttUs(obiwan::core::Site& client, const std::string& to, int pings,
                 const obiwan::TraceSinks* spans) {
  Samples rtt;
  for (int i = 0; i < kWarmup + pings; ++i) {
    const std::int64_t t0 = NowNs();
    bool ok = false;
    {
      LayerSpan span(spans, "rmi", "ping");
      ok = client.Ping(to).ok();
    }
    if (ok && i >= kWarmup) rtt.Add(NowNs() - t0);
  }
  return rtt.Percentile(0.5) / 1e3;
}

WireCost GetReplyCost(const obiwan::TraceSinks* spans) {
  constexpr std::uint64_t kBatch = 16;
  GetReply reply;
  for (std::uint64_t i = 1; i <= kBatch; ++i) {
    RefEntry next = i < kBatch ? RefEntry::Inline(ObjectId{1, i + 1})
                               : RefEntry::Proxy(Descriptor(i + 1));
    reply.objects.push_back(NodeRecord(i, 1024, std::move(next)));
    reply.objects.back().provider = Descriptor(i);
  }
  return MeasureCodec(reply, "get_reply", spans);
}

WireCost PushRecordCost(const obiwan::TraceSinks* spans) {
  return MeasureCodec(NodeRecord(1, 4096, RefEntry::Null()), "record", spans);
}

}  // namespace perfbench
