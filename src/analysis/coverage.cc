#include "analysis/coverage.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <mutex>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "analysis/goroutine_tree.hh"
#include "base/fmt.hh"
#include "runtime/goroutine.hh"
#include "trace/serialize.hh"

namespace goat::analysis {

using staticmodel::Cu;
using staticmodel::CuKind;
using trace::Event;
using trace::EventType;

const char *
reqTypeName(ReqType t)
{
    static constexpr const char *kNames[] = {"blocked", "unblocking", "nop",
                                             "blocking"};
    auto i = static_cast<size_t>(t);
    return i < 4 ? kNames[i] : "?";
}

namespace {

constexpr uint32_t kNone = ~0u;
constexpr ReqType kTypes[] = {ReqType::Blocked, ReqType::Unblocking,
                              ReqType::Nop, ReqType::Blocking};

constexpr unsigned
bitOf(ReqType t)
{
    return 1u << static_cast<unsigned>(t);
}

/** Select-case triple (Req2) and NB-select (Req4) requirement sets. */
constexpr unsigned kTriple = bitOf(ReqType::Blocked) |
                             bitOf(ReqType::Unblocking) |
                             bitOf(ReqType::Nop);
constexpr unsigned kNbSelect =
    bitOf(ReqType::Unblocking) | bitOf(ReqType::Nop);

/**
 * Append a requirement group key "<basename>:<line> <kind>[/case<i>] ":
 * the requirement key without its trailing type token. Must stay
 * byte-equal to the historic key format — persisted bitmaps and
 * determinism tests compare these strings.
 */
void
appendGroupKey(std::string &out, const Cu &cu, int case_idx)
{
    out.append(cu.loc.basenameView());
    char buf[48];
    int n = case_idx >= 0
                ? std::snprintf(buf, sizeof buf, ":%u %s/case%d ",
                                cu.loc.line, cuKindName(cu.kind), case_idx)
                : std::snprintf(buf, sizeof buf, ":%u %s ", cu.loc.line,
                                cuKindName(cu.kind));
    out.append(buf, static_cast<size_t>(n));
}

/** One interned requirement group: the (node, CU, case) of a key. */
struct Group
{
    std::array<std::string, 4> keys; ///< Full key per ReqType.
    Cu cu;
    int caseIdx = -1;
    /** Program level (no node prefix). Keys that do not parse are not
     *  program level: they only round-trip through bitmaps. */
    bool program = false;
    uint32_t cuGroup = kNone;   ///< Program level: the CU's own group.
    uint32_t loc = kNone;       ///< Program level: location id.
    uint32_t prevAtLoc = kNone; ///< Previous group at that location.
};

/**
 * The process-wide, append-only requirement table. Requirement id =
 * group * 4 + ReqType; groups are interned by key string, so equal keys
 * get equal ids in every state of the process, and ids never change.
 * Every member is guarded by mu.
 */
struct Table
{
    std::mutex mu;
    std::deque<Group> groups;
    std::unordered_map<std::string, uint32_t> groupIds;
    std::unordered_map<std::string, uint32_t> nodeIds{{"main", 0}};
    std::vector<std::string> nodeKeys{"main"}; ///< Node 0 is the root.
    /** "<basename>:<line>" → id; per id, the newest program-level
     *  group there (the head of uncoveredAtLoc's chain). */
    std::unordered_map<std::string, uint32_t> locIds;
    std::vector<uint32_t> locHead;

    /** Index of @p key in @p ids; a new key appends @p v to @p vals. */
    template <class V>
    static uint32_t
    index(std::unordered_map<std::string, uint32_t> &ids,
          std::vector<V> &vals, const std::string &key, V v)
    {
        auto [it, fresh] =
            ids.try_emplace(key, static_cast<uint32_t>(vals.size()));
        if (fresh)
            vals.push_back(std::move(v));
        return it->second;
    }

    uint32_t node(const std::string &k) { return index(nodeIds, nodeKeys, k, k); }

    /** Intern a group key "[<node>|]<file>:<line> <kind>[/case<i>] ". */
    uint32_t
    group(const std::string &key)
    {
        if (auto it = groupIds.find(key); it != groupIds.end())
            return it->second;
        Group g;
        for (ReqType t : kTypes)
            g.keys[static_cast<size_t>(t)] = key + reqTypeName(t);
        size_t bar = key.rfind('|');
        size_t at = bar == std::string::npos ? 0 : bar + 1;
        size_t sp = key.find(' ', at);
        size_t colon = key.rfind(':', sp);
        if (sp != std::string::npos && colon != std::string::npos &&
            colon >= at && key.back() == ' ') {
            std::string kind = key.substr(sp + 1, key.size() - sp - 2);
            if (size_t c = kind.find("/case"); c != std::string::npos) {
                g.caseIdx = std::atoi(kind.c_str() + c + 5);
                kind.resize(c);
            }
            g.cu = Cu(SourceLoc(trace::internString(key.substr(at, colon - at)),
                                static_cast<uint32_t>(std::strtoul(
                                    key.c_str() + colon + 1, nullptr, 10))),
                      staticmodel::cuKindFromName(kind));
            g.program = bar == std::string::npos;
        }
        if (g.program) {
            std::string cu_key;
            appendGroupKey(cu_key, g.cu, -1);
            g.cuGroup = g.caseIdx >= 0 ? group(cu_key) : kNone;
            g.loc = index(locIds, locHead, key.substr(0, sp), kNone);
        }
        auto id = static_cast<uint32_t>(groups.size());
        if (g.program) {
            g.cuGroup = g.caseIdx >= 0 ? g.cuGroup : id;
            g.prevAtLoc = std::exchange(locHead[g.loc], id);
        }
        groups.push_back(std::move(g));
        groupIds.emplace(key, id);
        return id;
    }

    /** Id of a full requirement key (kNone: no type token). */
    uint32_t
    id(const std::string &key)
    {
        size_t sp = key.rfind(' ');
        for (ReqType t : kTypes)
            if (sp != std::string::npos &&
                key.compare(sp + 1, std::string::npos, reqTypeName(t)) == 0)
                return group(key.substr(0, sp + 1)) * 4 +
                       static_cast<uint32_t>(t);
        return kNone;
    }

    const std::string &
    keyOf(uint32_t id) const
    {
        return groups[id >> 2].keys[id & 3];
    }
};

/** The table (immortal: thread-exit paths may still reach it). */
Table &
table()
{
    static Table *t = new Table;
    return *t;
}

/**
 * The lock-free front of the table: a thread-local memo from two
 * integer words to an id. Entries never go stale (ids never change),
 * so a fold takes the table lock only on a miss. Key families differ
 * in the top bits of the second word.
 */
constexpr uint64_t kCuKey = 1ull << 62, kGroupKey = 2ull << 62,
                   kNodeKey = 3ull << 62;

template <class Miss>
uint32_t
memoized(uint64_t a, uint64_t b, Miss &&miss)
{
    thread_local std::map<std::pair<uint64_t, uint64_t>, uint32_t> memo;
    auto [it, fresh] = memo.try_emplace({a, b}, kNone);
    if (fresh) {
        std::lock_guard<std::mutex> lock(table().mu);
        it->second = miss(table());
    }
    return it->second;
}

/** Program-level group of the CU (@p loc, @p kind). */
uint32_t
cuGroup(const SourceLoc &loc, CuKind kind)
{
    return memoized(reinterpret_cast<uintptr_t>(loc.file),
                    kCuKey | uint64_t{loc.line} << 8 |
                        static_cast<uint64_t>(kind),
                    [&](Table &t) {
                        std::string k;
                        appendGroupKey(k, Cu(loc, kind), -1);
                        return t.group(k);
                    });
}

/** Group of @p cu (select case @p case_idx when ≥ 0) at goroutine
 *  node @p node, or at program level when node is kNone. */
uint32_t
groupOf(uint32_t node, uint32_t cu_group, const Cu &cu, int case_idx)
{
    if (node == kNone && case_idx < 0)
        return cu_group;
    return memoized(uint64_t{node + 1} << 32 | cu_group,
                    kGroupKey | static_cast<uint32_t>(case_idx + 1),
                    [&](Table &t) {
                        std::string k;
                        if (node != kNone)
                            k = t.nodeKeys[node] + "|";
                        appendGroupKey(k, cu, case_idx);
                        return t.group(k);
                    });
}

/**
 * The CU groups with required program-level requirements among @p ids
 * (ascending), in CU order, each with its select-case groups by case
 * index (kNone where a case is not required).
 */
std::vector<std::pair<uint32_t, std::vector<uint32_t>>>
programCus(const Table &t, const std::vector<uint32_t> &ids)
{
    std::map<uint32_t, std::vector<uint32_t>> byCu;
    for (uint32_t id : ids) {
        const Group &g = t.groups[id >> 2];
        if (!g.program)
            continue;
        std::vector<uint32_t> &cases = byCu[g.cuGroup];
        if (g.caseIdx >= 0) {
            cases.resize(std::max(cases.size(), size_t(g.caseIdx) + 1), kNone);
            cases[static_cast<size_t>(g.caseIdx)] = id >> 2;
        }
    }
    std::vector<std::pair<uint32_t, std::vector<uint32_t>>> out(byCu.begin(),
                                                                byCu.end());
    std::sort(out.begin(), out.end(), [&](const auto &a, const auto &b) {
        return t.groups[a.first].cu < t.groups[b.first].cu;
    });
    return out;
}

} // namespace

unsigned
reqTemplate(CuKind kind)
{
    switch (kind) {
      case CuKind::Send:
      case CuKind::Recv:
      case CuKind::Range:
        return kTriple;
      case CuKind::Lock:
        return bitOf(ReqType::Blocked) | bitOf(ReqType::Blocking);
      case CuKind::Unlock:
      case CuKind::Close:
      case CuKind::Signal:
      case CuKind::Broadcast:
      case CuKind::Done:
        return kNbSelect;
      case CuKind::Go:
        return bitOf(ReqType::Nop);
      default:
        return 0;
    }
}

void
CoverageState::Bits::set(uint32_t i, unsigned mask)
{
    uint32_t w = i >> 6;
    if (w_.empty())
        lo_ = w;
    if (w < lo_) {
        w_.insert(w_.begin(), lo_ - w, 0);
        lo_ = w;
    }
    if (w - lo_ >= w_.size())
        w_.resize(w - lo_ + 1);
    w_[w - lo_] |= uint64_t{mask} << (i & 63);
}

void
CoverageState::Bits::orFrom(const Bits &o)
{
    if (o.w_.empty())
        return;
    set(o.lo_ * 64, 0); // widen this window over o's
    set((o.lo_ + static_cast<uint32_t>(o.w_.size()) - 1) * 64, 0);
    for (size_t i = 0; i < o.w_.size(); ++i)
        w_[o.lo_ - lo_ + i] |= o.w_[i];
}

size_t
CoverageState::Bits::count(uint64_t lanes) const
{
    size_t n = 0;
    for (uint64_t w : w_)
        n += static_cast<size_t>(std::popcount(w & lanes));
    return n;
}

template <class F>
void
CoverageState::Bits::forEach(F &&f) const
{
    for (size_t i = 0; i < w_.size(); ++i)
        for (uint64_t w = w_[i]; w; w &= w - 1)
            f(static_cast<uint32_t>((lo_ + i) * 64) +
              static_cast<uint32_t>(std::countr_zero(w)));
}

std::string
CoverageState::key(const Cu &cu, ReqType type, int case_idx)
{
    std::string k;
    appendGroupKey(k, cu, case_idx);
    return k + reqTypeName(type);
}

CoverageState::CoverageState(const staticmodel::CuTable &statics)
{
    for (const Cu &cu : statics.all())
        required_.set(cuGroup(cu.loc, cu.kind) * 4, reqTemplate(cu.kind));
}

size_t
CoverageState::coveredCountOfType(ReqType t) const
{
    // ReqType t is bit t of every group's nibble.
    return covered_.count(0x1111111111111111ull << static_cast<unsigned>(t));
}

void
CoverageState::mark(uint32_t g, ReqType t)
{
    required_.set(g * 4, bitOf(t));
    covered_.set(g * 4, bitOf(t));
}

CoverageState::CuRef
CoverageState::resolveCu(const SourceLoc &loc, CuKind fallback)
{
    // A state knows a CU when its group carries requirements (kinds
    // without a template have nothing to instantiate). A receive at a
    // known range statement is the range; an unknown CU is registered.
    CuRef r{cuGroup(loc, fallback), Cu(loc, fallback)};
    if (fallback == CuKind::Recv && !required_.nibble(r.group)) {
        CuRef range{cuGroup(loc, CuKind::Range), Cu(loc, CuKind::Range)};
        if (required_.nibble(range.group))
            return range;
    }
    required_.set(r.group * 4, reqTemplate(fallback));
    return r;
}

void
CoverageState::cover(const CuRef &cu, ReqType type, int case_idx,
                     uint32_t node)
{
    mark(groupOf(kNone, cu.group, cu.cu, case_idx), type);
    if (node == kNone)
        return;
    uint32_t g = groupOf(node, cu.group, cu.cu, case_idx);
    if (covered_.nibble(g) & bitOf(type))
        return;
    // The node's first cover materializes its group — NB-select
    // requirements included once the select is known to have a default.
    unsigned mask = case_idx >= 0 ? kTriple : reqTemplate(cu.cu.kind);
    if (case_idx < 0 && cu.cu.kind == CuKind::Select &&
        (required_.nibble(cu.group) & bitOf(ReqType::Unblocking)))
        mask |= kNbSelect;
    required_.set(g * 4, mask);
    mark(g, type);
}

void
CoverageState::addEct(const trace::Ect &ect)
{
    GoroutineTree tree(ect);
    addEct(ect, tree);
}

void
CoverageState::addEct(const trace::Ect &ect, const GoroutineTree &tree)
{
    struct SelCtx
    {
        bool active = false;
        bool hasDefault = false;
        int nCases = 0;
        CuRef cu{kNone, Cu()};
    };
    // gid → goroutine-node id of application goroutines (kNone: system
    // or scheduler context). A node's equivalence key is a function of
    // (parent node, creation site), which is the memo key.
    thread_local std::vector<uint32_t> nodeOf;
    thread_local std::vector<SelCtx> sel;
    nodeOf.assign(tree.nodes().empty() ? 0 : tree.nodes().rbegin()->first + 1,
                  kNone);
    sel.assign(nodeOf.size(), SelCtx());
    for (const GoroutineNode *n : tree.appNodes()) // parents first
        nodeOf[n->gid] =
            n == tree.root()
                ? 0
                : memoized(reinterpret_cast<uintptr_t>(n->creationLoc.file),
                           kNodeKey | uint64_t{nodeOf[n->parentGid]} << 32 |
                               n->creationLoc.line,
                           [&](Table &t) { return t.node(n->key); });
    auto nodeAt = [&](uint64_t gid) {
        return gid < nodeOf.size() ? nodeOf[gid] : kNone;
    };
    auto byWoken = [](int64_t woken) {
        return woken ? ReqType::Unblocking : ReqType::Nop;
    };
    // Last acquisition site per lock object: (object, CU, node).
    std::vector<std::tuple<uint64_t, CuRef, uint32_t>> acq;
    auto lastAcq = [&](uint64_t obj) {
        return std::find_if(acq.begin(), acq.end(), [&](const auto &a) {
            return std::get<0>(a) == obj;
        });
    };

    for (const Event &ev : ect.events()) {
        const uint32_t nk = nodeAt(ev.gid);
        if (nk == kNone && ev.type != EventType::GoCreate)
            continue; // system/scheduler context
        const auto obj = static_cast<uint64_t>(ev.args[0]);
        SelCtx &ctx = sel[ev.gid];
        // An operation that blocked first covers `blocked`, else
        // `unblocking` or `nop` by whether it woke a goroutine.
        auto completes = [&](CuKind kind, bool blocked, int64_t woken) {
            cover(resolveCu(ev.loc, kind),
                  blocked ? ReqType::Blocked : byWoken(woken), -1, nk);
        };

        switch (ev.type) {
          case EventType::GoCreate:
            if (ev.args[1] == 0 && nodeAt(obj) != kNone) // app child
                completes(CuKind::Go, false, 0);
            break;
          case EventType::GoBlockSend:
          case EventType::ChSend:
            completes(CuKind::Send,
                      ev.type == EventType::GoBlockSend || ev.args[1],
                      ev.args[2]);
            break;
          case EventType::GoBlockRecv:
          case EventType::ChRecv:
            completes(CuKind::Recv,
                      ev.type == EventType::GoBlockRecv || ev.args[1],
                      ev.args[2]);
            break;
          case EventType::GoBlockSync: {
            // a1 is the runtime BlockReason: only mutex/rwmutex parks
            // instantiate Req3 (waitgroup waits have no requirement).
            auto reason = static_cast<runtime::BlockReason>(ev.args[1]);
            if (reason == runtime::BlockReason::Mutex ||
                reason == runtime::BlockReason::RWMutex)
                completes(CuKind::Lock, true, 0);
            break;
          }
          case EventType::GoBlockSelect:
            // Every registered case of the parked select is blocked.
            if (ctx.active && !ctx.hasDefault)
                for (int i = 0; i < ctx.nCases; ++i)
                    cover(ctx.cu, ReqType::Blocked, i, nk);
            break;
          case EventType::ChClose:
            completes(CuKind::Close, false, ev.args[1]);
            break;
          case EventType::MuLockReq:
          case EventType::RWLockReq:
          case EventType::RWRLockReq: {
            // a1 names the holder (-1 resp. 0: none), whose acquisition
            // site covers lock-blocking.
            auto it = lastAcq(obj);
            if (ev.args[1] != (ev.type == EventType::MuLockReq ? -1 : 0) &&
                it != acq.end())
                cover(std::get<1>(*it), ReqType::Blocking, -1,
                      std::get<2>(*it));
            break;
          }
          case EventType::MuLock:
          case EventType::RWLock:
          case EventType::RWRLock: {
            CuRef cu = resolveCu(ev.loc, CuKind::Lock);
            if (ev.args[1])
                cover(cu, ReqType::Blocked, -1, nk);
            if (auto it = lastAcq(obj); it != acq.end())
                *it = {obj, cu, nk};
            else
                acq.emplace_back(obj, cu, nk);
            break;
          }
          case EventType::MuUnlock:
          case EventType::RWUnlock:
          case EventType::RWRUnlock:
            completes(CuKind::Unlock, false, ev.args[1]);
            break;
          case EventType::WgAdd:
            if (ev.args[1] < 0) // a Done
                completes(CuKind::Done, false, ev.args[3]);
            break;
          case EventType::CvSignal:
            completes(CuKind::Signal, false, ev.args[1]);
            break;
          case EventType::CvBroadcast:
            completes(CuKind::Broadcast, false, ev.args[1]);
            break;
          case EventType::SelectBegin:
            ctx = {true, ev.args[1] != 0, static_cast<int>(ev.args[0]),
                   resolveCu(ev.loc, CuKind::Select)};
            if (ctx.hasDefault) // Req4 NB-SELECT instances
                required_.set(ctx.cu.group * 4, kNbSelect);
            break;
          case EventType::SelectCase:
            // Req2: a discovered case → requirement triple, program
            // and node level.
            if (ctx.active && !ctx.hasDefault) {
                auto idx = static_cast<int>(ev.args[0]);
                for (uint32_t node : {kNone, nk})
                    required_.set(
                        groupOf(node, ctx.cu.group, ctx.cu.cu, idx) * 4,
                        kTriple);
            }
            break;
          case EventType::SelectEnd: {
            if (!ctx.active)
                break;
            ctx.active = false;
            auto chosen = static_cast<int>(ev.args[0]);
            if (chosen < 0) // default taken: the select acted as a NOP
                cover(ctx.cu, ReqType::Nop, -1, nk);
            else if (ctx.hasDefault)
                cover(ctx.cu, byWoken(ev.args[2]), -1, nk);
            else
                cover(ctx.cu,
                      ev.args[1] ? ReqType::Blocked : byWoken(ev.args[2]),
                      chosen, nk);
            break;
          }
          default:
            break;
        }
    }
}

void
CoverageState::mergeFrom(const CoverageState &other)
{
    required_.orFrom(other.required_);
    covered_.orFrom(other.covered_);
}

double
CoverageState::percent() const
{
    size_t total = totalRequirements();
    if (total == 0)
        return 100.0;
    return 100.0 * static_cast<double>(coveredCount()) /
           static_cast<double>(total);
}

bool
CoverageState::restoreBitmap(const std::string &bitmap)
{
    Table &t = table();
    std::lock_guard<std::mutex> lock(t.mu);
    size_t pos = 0;
    while (pos < bitmap.size()) {
        size_t eol = std::min(bitmap.find('\n', pos), bitmap.size());
        std::string line = bitmap.substr(pos, eol - pos);
        pos = eol + 1;
        if (line.empty())
            continue;
        if (line.size() < 3 || (line[0] != '0' && line[0] != '1') ||
            line[1] != ' ')
            return false;
        uint32_t id = t.id(line.substr(2));
        if (id == kNone)
            return false;
        required_.set(id);
        if (line[0] == '1')
            covered_.set(id);
    }
    return true;
}

std::vector<uint32_t>
CoverageState::sortedIds(bool uncovered_only) const
{
    std::vector<uint32_t> ids;
    required_.forEach([&](uint32_t id) {
        if (!uncovered_only || !covered_.test(id))
            ids.push_back(id);
    });
    std::sort(ids.begin(), ids.end(), [](uint32_t a, uint32_t b) {
        return table().keyOf(a) < table().keyOf(b);
    });
    return ids;
}

std::string
CoverageState::bitmapStr() const
{
    std::lock_guard<std::mutex> lock(table().mu);
    std::string out;
    for (uint32_t id : sortedIds(false)) {
        out += covered_.test(id) ? "1 " : "0 ";
        out += table().keyOf(id);
        out += '\n';
    }
    return out;
}

std::vector<std::string>
CoverageState::uncovered() const
{
    std::lock_guard<std::mutex> lock(table().mu);
    std::vector<std::string> out;
    for (uint32_t id : sortedIds(true))
        out.push_back(table().keyOf(id));
    return out;
}

bool
CoverageState::isCovered(const std::string &key) const
{
    std::lock_guard<std::mutex> lock(table().mu);
    uint32_t id = table().id(key);
    return id != kNone && covered_.test(id);
}

bool
CoverageState::isRequired(const std::string &key) const
{
    std::lock_guard<std::mutex> lock(table().mu);
    uint32_t id = table().id(key);
    return id != kNone && required_.test(id);
}

size_t
CoverageState::uncoveredAtLoc(const SourceLoc &loc) const
{
    uint32_t l = memoized(
        reinterpret_cast<uintptr_t>(loc.file), loc.line, [&](Table &t) {
            return Table::index(t.locIds, t.locHead, loc.str(), kNone);
        });
    Table &t = table();
    std::lock_guard<std::mutex> lock(t.mu);
    size_t n = 0;
    for (uint32_t g = t.locHead[l]; g != kNone; g = t.groups[g].prevAtLoc)
        n += static_cast<size_t>(
            std::popcount(required_.nibble(g) & ~covered_.nibble(g)));
    return n;
}

std::vector<Cu>
CoverageState::cus() const
{
    std::vector<uint32_t> ids;
    required_.forEach([&](uint32_t id) { ids.push_back(id); });
    std::lock_guard<std::mutex> lock(table().mu);
    std::vector<Cu> out;
    for (const auto &[g, cases] : programCus(table(), ids))
        out.push_back(table().groups[g].cu);
    return out;
}

std::string
CoverageState::tableStr() const
{
    std::vector<uint32_t> ids;
    required_.forEach([&](uint32_t id) { ids.push_back(id); });
    Table &t = table();
    std::lock_guard<std::mutex> lock(t.mu);
    std::string out = strFormat("%-22s %-10s %-14s %s\n", "CU location",
                                "kind", "requirement", "covered");
    for (const auto &[g, cases] : programCus(t, ids)) {
        const Cu &cu = t.groups[g].cu;
        auto row = [&](uint32_t group, ReqType type, int idx) {
            std::string req =
                idx >= 0 ? strFormat("case%d-%s", idx, reqTypeName(type))
                         : reqTypeName(type);
            bool yes = group != kNone && (covered_.nibble(group) & bitOf(type));
            out += strFormat("%-22s %-10s %-14s %s\n", cu.loc.str().c_str(),
                             cuKindName(cu.kind), req.c_str(),
                             yes ? "yes" : "no");
        };
        for (ReqType type : kTypes)
            if (reqTemplate(cu.kind) & bitOf(type))
                row(g, type, -1);
        for (size_t i = 0; i < cases.size(); ++i)
            for (ReqType type :
                 {ReqType::Blocked, ReqType::Unblocking, ReqType::Nop})
                row(cases[i], type, static_cast<int>(i));
        // A select known to carry a default case (Req4 NB-SELECT).
        if (cu.kind == CuKind::Select &&
            (required_.nibble(g) & bitOf(ReqType::Unblocking))) {
            row(g, ReqType::Unblocking, -1);
            row(g, ReqType::Nop, -1);
        }
    }
    return out;
}

} // namespace goat::analysis
