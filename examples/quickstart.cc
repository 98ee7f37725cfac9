// Quickstart: two sites, one shared object graph.
//
// Walks the paper's core loop end to end:
//   1. declare a shareable class,
//   2. bind a master graph in the name server at one site,
//   3. look it up from another site,
//   4. invoke it remotely (RMI),
//   5. replicate it incrementally and invoke locally (LMI),
//   6. modify the replica and put it back to the master.
#include <cstdio>

#include "obiwan.h"

namespace {

using namespace obiwan;

class Greeting : public core::Shareable {
 public:
  OBIWAN_SHAREABLE(Greeting)

  std::string text;
  std::int64_t times_shown = 0;
  core::Ref<Greeting> next;

  std::string Show() {
    ++times_shown;
    return text;
  }
  void SetText(std::string t) { text = std::move(t); }

  static void ObiwanDefine(core::ClassDef<Greeting>& def) {
    def.Field("text", &Greeting::text)
        .Field("times_shown", &Greeting::times_shown)
        .Ref("next", &Greeting::next)
        .Method("Show", &Greeting::Show)
        .Method("SetText", &Greeting::SetText);
  }
};
OBIWAN_REGISTER_CLASS(Greeting);

}  // namespace

int main() {
  net::LoopbackNetwork network;

  // A "server" site mastering the objects and hosting the name server.
  core::Site server(/*id=*/1, network.CreateEndpoint("server"));
  if (!server.Start().ok()) return 1;
  server.HostRegistry();

  auto hello = std::make_shared<Greeting>();
  hello->text = "hello from the server";
  auto world = std::make_shared<Greeting>();
  world->text = "...and a second object, reached through the first";
  hello->next = world;

  if (!server.Bind("greeting", hello).ok()) return 1;

  // A "client" site on the same network.
  core::Site client(/*id=*/2, network.CreateEndpoint("client"));
  if (!client.Start().ok()) return 1;
  client.UseRegistry("server");

  auto remote = client.Lookup<Greeting>("greeting");
  if (!remote.ok()) {
    std::fprintf(stderr, "lookup failed: %s\n", remote.status().ToString().c_str());
    return 1;
  }

  // --- RMI: the method runs at the server -----------------------------------
  auto shown = remote->Invoke(&Greeting::Show);
  std::printf("RMI result : %s\n", shown.ok() ? shown->c_str() : "error");
  std::printf("master hits: %lld (the master counted the call)\n",
              static_cast<long long>(hello->times_shown));

  // --- LMI: replicate, then invoke locally ----------------------------------
  auto replica = remote->Replicate(core::ReplicationMode::Incremental(1));
  if (!replica.ok()) return 1;
  core::Ref<Greeting> ref = *replica;

  std::printf("LMI result : %s\n", ref->Show().c_str());
  std::printf("master hits: %lld (unchanged - the call was local)\n",
              static_cast<long long>(hello->times_shown));

  // Touching the second object faults it in transparently.
  std::printf("faulted in : %s\n", ref->next->Show().c_str());

  // --- Put: push the replica's state back to the master -----------------------
  ref->SetText("updated on the client while working locally");
  if (!client.Put(ref).ok()) return 1;
  std::printf("master text: %s\n", hello->text.c_str());

  std::printf("replicas on client: %zu, object faults: %llu\n",
              client.replica_count(),
              static_cast<unsigned long long>(
                  client.telemetry().object_faults->Value()));
  return 0;
}
