/**
 * @file
 * Named-counter statistics registry with typed handles.
 *
 * Modules register counters by name; benches and tests read them out.
 * A stats object is plumbed explicitly (no globals), keeping
 * experiments independent and deterministic.
 *
 * Hot paths register each name once, at construction, and keep the
 * returned sim::Counter handle: an increment through a handle is one
 * add and one store, with no name lookup.  Cold sites may still write
 * by name; both resolve through the same registry, so a handle and a
 * by-name write of one name share one slot.
 */

#ifndef DAMN_SIM_STATS_HH
#define DAMN_SIM_STATS_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <string_view>

namespace damn::sim {

/**
 * Handle to one registered counter.  Cheap to copy; valid for the
 * lifetime of the Stats object that issued it, across clear().  A
 * default-constructed handle is unbound and must be assigned before
 * use.
 */
class Counter
{
  public:
    Counter() = default;

    void
    add(std::uint64_t delta = 1) const
    {
        slot_->value += delta;
        slot_->written = true;
    }

    void
    set(std::uint64_t value) const
    {
        slot_->value = value;
        slot_->written = true;
    }

    /** Track a maximum. */
    void
    max(std::uint64_t value) const
    {
        if (value > slot_->value)
            slot_->value = value;
        slot_->written = true;
    }

    std::uint64_t get() const { return slot_->value; }

  private:
    friend class Stats;

    /** A registered name's storage.  `written` keeps a registered but
     *  never-written name out of the output, as if it did not exist. */
    struct Slot
    {
        std::uint64_t value = 0;
        bool written = false;
    };

    explicit Counter(Slot *slot) : slot_(slot) {}

    Slot *slot_ = nullptr;
};

/**
 * Registry of named 64-bit counters with accumulate semantics.
 *
 * A name exists in the output (snapshot(), has()) from its first
 * write until the next clear(), whether it was written by name or
 * through a handle; registering a handle alone writes nothing.  Output
 * is ordered by name.
 */
class Stats
{
  public:
    Stats() = default;
    // Handles point into this object's slots.
    Stats(const Stats &) = delete;
    Stats &operator=(const Stats &) = delete;

    /** Handle for counter @p name, registering the name if new. */
    Counter
    counter(std::string_view name)
    {
        ++resolutions_;
        return Counter(&slotOf(name));
    }

    /** Add @p delta to counter @p name (creates it at zero). */
    void
    add(std::string_view name, std::uint64_t delta = 1)
    {
        counter(name).add(delta);
    }

    /** Set counter @p name to @p value. */
    void
    set(std::string_view name, std::uint64_t value)
    {
        counter(name).set(value);
    }

    /** Track a maximum. */
    void
    max(std::string_view name, std::uint64_t value)
    {
        counter(name).max(value);
    }

    /** Read counter @p name (0 if absent). */
    std::uint64_t
    get(std::string_view name) const
    {
        const auto it = index_.find(name);
        return it == index_.end() ? 0 : it->second->value;
    }

    bool
    has(std::string_view name) const
    {
        const auto it = index_.find(name);
        return it != index_.end() && it->second->written;
    }

    /**
     * Copy of every written counter, for attaching to experiment
     * results after a run.  The map is ordered by name, so serializing
     * a snapshot is deterministic.
     */
    std::map<std::string, std::uint64_t>
    snapshot() const
    {
        std::map<std::string, std::uint64_t> out;
        for (const auto &[name, slot] : index_)
            if (slot->written)
                out.emplace_hint(out.end(), name, slot->value);
        return out;
    }

    /** Zero every counter and drop it from the output; handles stay
     *  valid. */
    void
    clear()
    {
        for (Counter::Slot &s : slots_)
            s = Counter::Slot{};
    }

    /**
     * Name lookups so far: every counter() call and every write by
     * name.  A data path that holds handles keeps this flat while it
     * runs; tests use it to keep string-keyed writes off per-segment
     * paths.
     */
    std::uint64_t resolutions() const { return resolutions_; }

  private:
    Counter::Slot &
    slotOf(std::string_view name)
    {
        auto it = index_.find(name);
        if (it == index_.end())
            it = index_.emplace(std::string(name),
                                &slots_.emplace_back()).first;
        return *it->second;
    }

    /** Slot storage; a deque never moves an element it already holds. */
    std::deque<Counter::Slot> slots_;
    std::map<std::string, Counter::Slot *, std::less<>> index_;
    std::uint64_t resolutions_ = 0;
};

/**
 * Handle factory over a Stats object that prefixes every counter name
 * with "<prefix>.".  Lets a reusable component (a co-runner, a churn
 * task) publish counters under its own namespace without knowing who
 * else shares the registry.
 */
class ScopedStats
{
  public:
    ScopedStats(Stats &stats, std::string prefix)
        : stats_(stats), prefix_(std::move(prefix))
    {}

    /** Handle for "<prefix>.<name>"; take it once, not per write. */
    Counter
    counter(std::string_view name)
    {
        return stats_.counter(prefix_ + "." + std::string(name));
    }

  private:
    Stats &stats_;
    std::string prefix_;
};

} // namespace damn::sim

#endif // DAMN_SIM_STATS_HH
