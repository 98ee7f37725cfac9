// Distributed game — "a distributed game involving people anywhere in the
// world" (§1).
//
// The game server masters a world of connected rooms (an object graph with
// cycles — corridors loop back). A player's client replicates the region
// around the avatar on demand: entering a room faults in its neighbourhood
// with a depth-bounded cluster, so memory on the info-appliance stays
// proportional to what the player has actually seen (§2.1's limited-memory
// case). Actions (taking loot) go through RMI when latency matters less than
// authority, and through local replicas when exploring.
#include <cstdio>

#include <vector>

#include "obiwan.h"

namespace {

using namespace obiwan;

class Room : public core::Shareable {
 public:
  OBIWAN_SHAREABLE(Room)

  std::string name;
  std::int64_t loot = 0;
  core::Ref<Room> north;
  core::Ref<Room> east;

  std::string Name() const { return name; }
  // Server-authoritative action: only one player can take the loot.
  std::int64_t TakeLoot() {
    std::int64_t taken = loot;
    loot = 0;
    return taken;
  }

  static void ObiwanDefine(core::ClassDef<Room>& def) {
    def.Field("name", &Room::name)
        .Field("loot", &Room::loot)
        .Ref("north", &Room::north)
        .Ref("east", &Room::east)
        .Method("Name", &Room::Name)
        .Method("TakeLoot", &Room::TakeLoot);
  }
};
OBIWAN_REGISTER_CLASS(Room);

// A 4x4 torus of rooms: north and east wrap around, so the graph is cyclic.
constexpr int kSide = 4;

std::shared_ptr<Room> BuildWorld(std::vector<std::shared_ptr<Room>>& out) {
  out.clear();
  for (int y = 0; y < kSide; ++y) {
    for (int x = 0; x < kSide; ++x) {
      auto room = std::make_shared<Room>();
      room->name = "room(" + std::to_string(x) + "," + std::to_string(y) + ")";
      room->loot = (x + y) % 3 == 0 ? 10 * (x + y + 1) : 0;
      out.push_back(std::move(room));
    }
  }
  auto at = [&](int x, int y) -> std::shared_ptr<Room>& {
    return out[static_cast<std::size_t>(((y + kSide) % kSide) * kSide +
                                        (x + kSide) % kSide)];
  };
  for (int y = 0; y < kSide; ++y) {
    for (int x = 0; x < kSide; ++x) {
      at(x, y)->north = at(x, y + 1);
      at(x, y)->east = at(x + 1, y);
    }
  }
  return out[0];
}

}  // namespace

int main() {
  VirtualClock clock;
  net::SimNetwork network(clock, net::kPaperLan);

  core::Site server(1, network.CreateEndpoint("game-server"), clock);
  core::Site player(2, network.CreateEndpoint("player"), clock);
  if (!server.Start().ok() || !player.Start().ok()) return 1;
  server.HostRegistry();
  player.UseRegistry("game-server");

  std::vector<std::shared_ptr<Room>> world;
  auto spawn = BuildWorld(world);
  if (!server.Bind("spawn", spawn).ok()) return 1;

  auto remote = player.Lookup<Room>("spawn");
  if (!remote.ok()) return 1;

  // Enter the world: replicate the spawn room plus a 1-step neighbourhood.
  auto here_result = remote->Replicate(core::ReplicationMode::ClusterDepth(1));
  if (!here_result.ok()) return 1;
  core::Ref<Room> here = *here_result;
  std::printf("spawned in %s — %zu rooms replicated (of %d in the world)\n",
              here->Name().c_str(), player.replica_count(), kSide * kSide);

  // Explore: each move may fault in the next neighbourhood; rooms already
  // seen cost nothing (identity preservation keeps one replica per room,
  // even though the torus loops back onto itself).
  const char* path = "NNEENE NEE";  // wraps around the torus
  for (const char* step = path; *step != '\0'; ++step) {
    if (*step == ' ') continue;
    core::Ref<Room>& next = (*step == 'N') ? here.get()->north : here.get()->east;
    std::size_t before = player.replica_count();
    here = next;
    std::string name = here->Name();  // faults in the room if needed
    std::printf("moved %c into %-10s  (replicas %zu -> %zu)\n", *step,
                name.c_str(), before, player.replica_count());
  }

  // The world is small enough that the loop brought us through every corner;
  // check identity: walking 4 steps north returns to the same *object*.
  Room* start = here.get();
  core::Ref<Room>* walk = &here;
  for (int i = 0; i < kSide; ++i) {
    walk = &(*walk)->north;  // operator-> faults in unexplored rooms
  }
  if (!walk->Demand().ok()) return 1;
  std::printf("torus check: 4 steps north returns to the same replica: %s\n",
              walk->get() == start ? "yes" : "NO");

  // Authoritative action via RMI: loot is granted by the master, so two
  // players cannot both take it — the local replica may be out of date.
  auto looted = player.Lookup<Room>("spawn")->Invoke(&Room::TakeLoot);
  if (!looted.ok()) return 1;
  std::printf("took %lld loot from the spawn room via RMI (server-authoritative)\n",
              static_cast<long long>(*looted));
  auto second = player.Lookup<Room>("spawn")->Invoke(&Room::TakeLoot);
  std::printf("second take yields %lld (already looted at the master)\n",
              static_cast<long long>(second.ok() ? *second : -1));

  std::printf("\nreplicas on client at exit: %zu; object faults: %llu; "
              "simulated time: %.1f ms\n",
              player.replica_count(),
              static_cast<unsigned long long>(
                  player.telemetry().object_faults->Value()),
              static_cast<double>(clock.Now()) / kMilli);
  return 0;
}
