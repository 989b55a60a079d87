//! Buffer-pool eviction policies.
//!
//! Besides the generic LRU/FIFO/Clock, [`PrefixPriority`] implements the
//! paper's SPINE-specific recommendation: because link destinations
//! concentrate on the *upstream* part of the backbone (Figure 8), the best
//! simple policy is "retain as much as possible of the top part of the Link
//! Table in memory" — i.e. always evict the page holding the
//! highest-numbered records.

/// Chooses which frame to evict. Frames are dense indices `0..capacity`;
/// the pool reports every access and load.
///
/// `Send` so pools (and the disk indexes built over them) can move across
/// threads and live behind a mutex shared by a worker pool.
pub trait EvictionPolicy: Send {
    /// A page already resident in `frame` was accessed.
    fn on_access(&mut self, frame: usize, page: u32);

    /// `page` was loaded into `frame` (after a miss or initial fill).
    fn on_load(&mut self, frame: usize, page: u32);

    /// Pick the frame to evict. `pinned(f)` is true for frames the pool
    /// must keep resident; return `None` only when every frame is pinned.
    /// All frames are occupied when called.
    fn victim(&mut self, pinned: &dyn Fn(usize) -> bool) -> Option<usize>;

    /// Human-readable name for experiment output.
    fn name(&self) -> &'static str;
}

/// Least-recently-used (timestamp scan).
#[derive(Default)]
pub struct Lru {
    clock: u64,
    stamp: Vec<u64>,
}

impl EvictionPolicy for Lru {
    fn on_access(&mut self, frame: usize, _page: u32) {
        self.clock += 1;
        self.stamp[frame] = self.clock;
    }

    fn on_load(&mut self, frame: usize, _page: u32) {
        if self.stamp.len() <= frame {
            self.stamp.resize(frame + 1, 0);
        }
        self.clock += 1;
        self.stamp[frame] = self.clock;
    }

    fn victim(&mut self, pinned: &dyn Fn(usize) -> bool) -> Option<usize> {
        self.stamp
            .iter()
            .enumerate()
            .filter(|&(i, _)| !pinned(i))
            .min_by_key(|&(_, &s)| s)
            .map(|(i, _)| i)
    }

    fn name(&self) -> &'static str {
        "lru"
    }
}

/// First-in-first-out by load order.
#[derive(Default)]
pub struct Fifo {
    clock: u64,
    loaded: Vec<u64>,
}

impl EvictionPolicy for Fifo {
    fn on_access(&mut self, _frame: usize, _page: u32) {}

    fn on_load(&mut self, frame: usize, _page: u32) {
        if self.loaded.len() <= frame {
            self.loaded.resize(frame + 1, 0);
        }
        self.clock += 1;
        self.loaded[frame] = self.clock;
    }

    fn victim(&mut self, pinned: &dyn Fn(usize) -> bool) -> Option<usize> {
        self.loaded
            .iter()
            .enumerate()
            .filter(|&(i, _)| !pinned(i))
            .min_by_key(|&(_, &s)| s)
            .map(|(i, _)| i)
    }

    fn name(&self) -> &'static str {
        "fifo"
    }
}

/// Second-chance clock.
#[derive(Default)]
pub struct Clock {
    hand: usize,
    referenced: Vec<bool>,
}

impl EvictionPolicy for Clock {
    fn on_access(&mut self, frame: usize, _page: u32) {
        self.referenced[frame] = true;
    }

    fn on_load(&mut self, frame: usize, _page: u32) {
        if self.referenced.len() <= frame {
            self.referenced.resize(frame + 1, false);
        }
        self.referenced[frame] = true;
    }

    fn victim(&mut self, pinned: &dyn Fn(usize) -> bool) -> Option<usize> {
        if (0..self.referenced.len()).all(pinned) {
            return None;
        }
        // Two full sweeps bound the search: the first clears reference
        // bits, the second must find an unreferenced unpinned frame.
        let mut steps = 2 * self.referenced.len() + 1;
        loop {
            if self.hand >= self.referenced.len() {
                self.hand = 0;
            }
            let f = self.hand;
            self.hand += 1;
            if pinned(f) {
                continue;
            }
            if self.referenced[f] {
                self.referenced[f] = false;
            } else {
                return Some(f);
            }
            steps -= 1;
            if steps == 0 {
                return Some(f);
            }
        }
    }

    fn name(&self) -> &'static str {
        "clock"
    }
}

/// The paper's SPINE buffering strategy: evict the frame holding the
/// highest page number, so the low-numbered pages — the top of the Link
/// Table, where Figure 8 shows links concentrate — stay resident.
#[derive(Default)]
pub struct PrefixPriority {
    pages: Vec<u32>,
}

impl EvictionPolicy for PrefixPriority {
    fn on_access(&mut self, _frame: usize, _page: u32) {}

    fn on_load(&mut self, frame: usize, page: u32) {
        if self.pages.len() <= frame {
            self.pages.resize(frame + 1, 0);
        }
        self.pages[frame] = page;
    }

    fn victim(&mut self, pinned: &dyn Fn(usize) -> bool) -> Option<usize> {
        self.pages
            .iter()
            .enumerate()
            .filter(|&(i, _)| !pinned(i))
            .max_by_key(|&(_, &p)| p)
            .map(|(i, _)| i)
    }

    fn name(&self) -> &'static str {
        "prefix-priority"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NONE_PINNED: &dyn Fn(usize) -> bool = &|_| false;

    /// A pin-state closure over an explicit per-frame mask.
    fn pinned(mask: &[bool]) -> impl Fn(usize) -> bool + '_ {
        move |f| mask[f]
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut p = Lru::default();
        p.on_load(0, 10);
        p.on_load(1, 11);
        p.on_load(2, 12);
        p.on_access(0, 10); // 1 is now the stalest
        assert_eq!(p.victim(NONE_PINNED), Some(1));
    }

    #[test]
    fn lru_skips_pinned_frames() {
        let mut p = Lru::default();
        p.on_load(0, 10);
        p.on_load(1, 11);
        assert_eq!(p.victim(&pinned(&[true, false])), Some(1));
        assert_eq!(p.victim(&pinned(&[true, true])), None);
    }

    #[test]
    fn fifo_ignores_accesses() {
        let mut p = Fifo::default();
        p.on_load(0, 10);
        p.on_load(1, 11);
        p.on_access(0, 10);
        assert_eq!(p.victim(NONE_PINNED), Some(0));
    }

    #[test]
    fn clock_gives_second_chances() {
        let mut p = Clock::default();
        p.on_load(0, 1);
        p.on_load(1, 2);
        // Both referenced: first sweep clears, second sweep evicts frame 0.
        assert_eq!(p.victim(NONE_PINNED), Some(0));
        // Frame 1's bit was cleared by the sweep, so it goes next.
        assert_eq!(p.victim(NONE_PINNED), Some(1));
    }

    #[test]
    fn clock_respects_pins() {
        let mut p = Clock::default();
        p.on_load(0, 1);
        p.on_load(1, 2);
        assert_eq!(p.victim(&pinned(&[true, false])), Some(1));
        assert_eq!(p.victim(&pinned(&[true, true])), None);
    }

    #[test]
    fn prefix_priority_keeps_low_pages() {
        let mut p = PrefixPriority::default();
        p.on_load(0, 3);
        p.on_load(1, 99);
        p.on_load(2, 7);
        assert_eq!(p.victim(NONE_PINNED), Some(1));
    }
}
