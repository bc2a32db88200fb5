#include "analysis/happens_before.hh"

#include <algorithm>
#include <map>
#include <set>

#include "base/fmt.hh"

namespace goat::analysis {

using trace::Event;
using trace::EventType;

void
VectorClock::join(const VectorClock &other)
{
    if (other.clock_.size() > clock_.size())
        clock_.resize(other.clock_.size());
    for (size_t gid = 0; gid < other.clock_.size(); ++gid)
        clock_[gid] = std::max(clock_[gid], other.clock_[gid]);
}

bool
VectorClock::le(const VectorClock &other) const
{
    for (size_t gid = 0; gid < clock_.size(); ++gid) {
        uint64_t theirs = gid < other.clock_.size() ? other.clock_[gid] : 0;
        if (clock_[gid] > theirs)
            return false;
    }
    return true;
}

std::string
VectorClock::str() const
{
    std::vector<std::string> parts;
    for (size_t gid = 0; gid < clock_.size(); ++gid)
        if (clock_[gid] != 0)
            parts.push_back(strFormat("g%zu:%lu", gid,
                                      static_cast<unsigned long>(
                                          clock_[gid])));
    return "{" + strJoin(parts, ",") + "}";
}

VectorClock &
HbPass::tick(const Event &ev)
{
    uint32_t top = ev.gid;
    if (ev.type == EventType::GoCreate || ev.type == EventType::GoUnblock)
        top = std::max(top, static_cast<uint32_t>(ev.args[0]));
    if (top >= go_.size())
        go_.resize(top + 1);
    VectorClock &me = go_[ev.gid].vc;
    me.tick(ev.gid);
    return me;
}

const SelectArm *
HbPass::polledArm(const Event &select_end) const
{
    const GoState &g = go_[select_end.gid];
    auto chosen = static_cast<int64_t>(select_end.args[0]);
    bool blocked_first = select_end.args[1] != 0;
    if (!g.inSelect || chosen < 0 || blocked_first ||
        static_cast<size_t>(chosen) >= g.arms.size())
        return nullptr;
    return &g.arms[chosen];
}

void
HbPass::join(const Event &ev)
{
    GoState &g = go_[ev.gid];
    VectorClock &me = g.vc;
    const bool observed = edges_ == HbEdges::Observed;

    switch (ev.type) {
      case EventType::GoCreate:
        go_[static_cast<uint32_t>(ev.args[0])].vc.join(me);
        break;

      case EventType::GoBlockSend:
      case EventType::GoBlockRecv:
      case EventType::GoBlockSelect:
      case EventType::GoBlockSync:
      case EventType::GoBlockCond:
        g.lastBlock = ev.type;
        break;
      case EventType::GoUnblock: {
        // Observed: every wake-up is a conservative bidirectional edge
        // (exact for rendezvous, safe — never introduces false races —
        // for one-way wakeups). Must: classify by what the target was
        // parked on. A channel park is a rendezvous, which orders both
        // endpoints in every feasible schedule; a cond wait is a
        // one-way signal edge; mutex/WaitGroup hand-offs are
        // schedule-induced (the wg must-order comes from the
        // release→wait edge) and dropped.
        GoState &target = go_[static_cast<uint32_t>(ev.args[0])];
        EventType parked = target.lastBlock;
        bool rendezvous = observed || parked == EventType::GoBlockSend ||
                          parked == EventType::GoBlockRecv ||
                          parked == EventType::GoBlockSelect;
        if (rendezvous || parked == EventType::GoBlockCond)
            target.vc.join(me);
        if (rendezvous)
            me.join(target.vc);
        break;
      }

      case EventType::ChSend:
        if (ev.args[1] == 0 && ev.args[2] == 0) {
            // Pure buffered deposit: the value carries this clock.
            chanQueue_[ev.args[0]].push_back(me);
        }
        break;
      case EventType::ChRecv:
        if (ev.args[3] == 1) {
            auto &q = chanQueue_[ev.args[0]];
            if (!q.empty()) {
                me.join(q.front());
                q.pop_front();
            }
        } else {
            // Closed-drain miss: ordered after the close.
            auto it = closeVc_.find(ev.args[0]);
            if (it != closeVc_.end())
                me.join(it->second);
        }
        break;
      case EventType::ChClose:
        closeVc_[ev.args[0]] = me;
        break;

      case EventType::SelectBegin:
        g.inSelect = true;
        g.arms.clear();
        break;
      case EventType::SelectCase: {
        if (!g.inSelect) {
            g.inSelect = true;
            g.arms.clear();
        }
        auto idx = static_cast<size_t>(ev.args[0]);
        if (g.arms.size() <= idx)
            g.arms.resize(idx + 1);
        g.arms[idx] = {ev.args[2], ev.args[1] != 0};
        break;
      }
      case EventType::SelectEnd: {
        // A park resolved through its GoUnblock; a poll-phase
        // transfer is attributed through the select context, since
        // select paths emit no Ch* events.
        const SelectArm *arm = polledArm(ev);
        g.inSelect = false;
        if (!arm)
            break;
        auto &q = chanQueue_[arm->chan];
        if (arm->send) {
            if (ev.args[2] == 0)
                q.push_back(me); // buffered deposit
        } else if (!q.empty()) {
            me.join(q.front());
            q.pop_front();
        } else if (auto it = closeVc_.find(arm->chan);
                   it != closeVc_.end()) {
            me.join(it->second);
        }
        break;
      }

      case EventType::MuLock:
      case EventType::RWLock:
      case EventType::RWRLock:
        // Must: no unlock→lock edge — another schedule may grant the
        // lock in a different order.
        if (observed) {
            auto it = release_.find(ev.args[0]);
            if (it != release_.end())
                me.join(it->second);
        }
        break;
      case EventType::MuUnlock:
      case EventType::RWUnlock:
      case EventType::RWRUnlock:
        if (observed)
            release_[ev.args[0]].join(me);
        break;

      case EventType::WgAdd:
        if (ev.args[1] < 0)
            release_[ev.args[0]].join(me); // Done releases
        break;
      case EventType::WgWait: {
        auto it = release_.find(ev.args[0]);
        if (it != release_.end())
            me.join(it->second);
        break;
      }

      default:
        break;
    }
}

std::string
Race::str() const
{
    return strFormat("DATA RACE on var %lu: %s by g%u at %s vs %s by "
                     "g%u at %s",
                     static_cast<unsigned long>(varId),
                     writeA ? "write" : "read", gidA, locA.str().c_str(),
                     writeB ? "write" : "read", gidB, locB.str().c_str());
}

std::string
RaceReport::str() const
{
    std::string out;
    for (const auto &race : races) {
        out += race.str();
        out += '\n';
    }
    return out;
}

namespace {

/** One recorded shared access. */
struct Access
{
    uint32_t gid;
    bool write;
    SourceLoc loc;
    VectorClock vc;
};

} // namespace

RaceReport
detectRaces(const trace::Ect &ect)
{
    std::map<uint64_t, std::vector<Access>> accesses;
    HbPass(HbEdges::Observed).run(ect, [&](const Event &ev,
                                           const VectorClock &vc) {
        if (ev.type == EventType::VarRead || ev.type == EventType::VarWrite)
            accesses[static_cast<uint64_t>(ev.args[0])].push_back(
                {ev.gid, ev.type == EventType::VarWrite, ev.loc, vc});
    });

    // Conflicting, concurrent access pairs (deduplicated by unordered
    // location pair per variable: which access the schedule happened
    // to run first is not part of the race's identity).
    RaceReport report;
    std::set<std::string> seen;
    for (const auto &[var, accs] : accesses) {
        for (size_t i = 0; i < accs.size(); ++i) {
            for (size_t j = i + 1; j < accs.size(); ++j) {
                const Access &a = accs[i];
                const Access &b = accs[j];
                if (a.gid == b.gid || (!a.write && !b.write))
                    continue;
                if (!VectorClock::concurrent(a.vc, b.vc))
                    continue;
                std::string sa = strFormat("%s/%d", a.loc.str().c_str(),
                                           a.write ? 1 : 0);
                std::string sb = strFormat("%s/%d", b.loc.str().c_str(),
                                           b.write ? 1 : 0);
                if (sb < sa)
                    std::swap(sa, sb);
                std::string key = strFormat(
                    "%lu/%s-%s", static_cast<unsigned long>(var),
                    sa.c_str(), sb.c_str());
                if (!seen.insert(key).second)
                    continue;
                Race race;
                race.varId = var;
                race.gidA = a.gid;
                race.gidB = b.gid;
                race.locA = a.loc;
                race.locB = b.loc;
                race.writeA = a.write;
                race.writeB = b.write;
                report.races.push_back(race);
            }
        }
    }
    return report;
}

} // namespace goat::analysis
