//! The dense recorder behind every run's [`Ledger`]. The machine charges
//! one bucket per retire, so a retire must cost about an array increment:
//!
//! * each program PC has a slot: the region that first charged it and one
//!   bucket per cycle category;
//! * each microcode function has a bucket table, chosen when a call
//!   enters it;
//! * the current region and its abort-replay flag change only at call,
//!   return and permanent abort.
//!
//! A PC charged under a second region, translation costs and zero-cycle
//! events go to the ordered [`Ledger`], into which [`Recorder::finish`]
//! folds the tables: exactly the ledger a per-retire map insert builds.

use crate::{Bucket, Category, Ledger, TOP_REGION};

/// Region of a program slot not yet charged (regions are program PCs or
/// [`TOP_REGION`]).
const UNCLAIMED: u32 = TOP_REGION - 1;

/// One program PC: the region that claimed it and one bucket for each of
/// the four cycle categories, indexed by [`Category`] discriminant.
#[derive(Clone, Copy, Debug)]
struct Slot {
    region: u32,
    by_cat: [Bucket; 4],
}

/// Per-retire cycle recorder for one run; see the module docs.
#[derive(Clone, Debug)]
pub struct Recorder {
    prog: Vec<Slot>,
    /// `(entry PC, per-position buckets)` of each microcode function, and
    /// the index of the one running.
    micro: Vec<(u32, Vec<Bucket>)>,
    current_micro: usize,
    region: u32,
    replay: bool,
    spill: Ledger,
}

impl Recorder {
    /// A recorder for a program of `code_len` instructions, charging
    /// program-stream retires to [`TOP_REGION`] until told otherwise.
    #[must_use]
    pub fn new(code_len: usize) -> Recorder {
        let empty = Slot {
            region: UNCLAIMED,
            by_cat: [Bucket::default(); 4],
        };
        Recorder {
            prog: vec![empty; code_len],
            micro: Vec::new(),
            current_micro: 0,
            region: TOP_REGION,
            replay: false,
            spill: Ledger::new(),
        }
    }

    /// Sets the region program-stream retires charge to, and whether that
    /// region is replaying a permanently aborted translation. Call at every
    /// scalar call and return.
    pub fn set_region(&mut self, region: u32, replay: bool) {
        self.region = region;
        self.replay = replay;
    }

    /// Records that `region`'s translation aborted permanently: a zero-cycle
    /// abort-replay event, and from now on its scalar retires charge to
    /// [`Category::AbortReplay`].
    pub fn abort_replay(&mut self, region: u32) {
        if self.region == region {
            self.replay = true;
        }
        self.spill.event(region, region, Category::AbortReplay);
    }

    /// Selects the microcode table of function `func` (microcode length
    /// `len`) for the microcode retires that follow. Call when a call
    /// enters microcode.
    pub fn enter_micro(&mut self, func: u32, len: usize) {
        let i = self.micro.iter().position(|&(f, _)| f == func);
        let i = i.unwrap_or_else(|| {
            self.micro.push((func, Vec::new()));
            self.micro.len() - 1
        });
        let table = &mut self.micro[i].1;
        table.resize(len.max(table.len()), Bucket::default());
        self.current_micro = i;
    }

    /// Charges one retire: `pc` is the microcode position when `micro` is
    /// set (the table chosen by [`Recorder::enter_micro`]), else the
    /// program PC; `vector` marks a vector instruction.
    #[inline]
    pub fn retire(&mut self, micro: bool, pc: u32, vector: bool, cycles: u64) {
        let b = if micro {
            &mut self.micro[self.current_micro].1[pc as usize]
        } else {
            let category = if vector {
                Category::VectorExecute
            } else if self.replay {
                Category::AbortReplay
            } else {
                Category::ScalarExecute
            };
            let slot = &mut self.prog[pc as usize];
            if slot.region != self.region {
                if slot.region != UNCLAIMED {
                    self.spill.charge(self.region, pc, category, cycles);
                    return;
                }
                slot.region = self.region;
            }
            &mut slot.by_cat[category as usize]
        };
        b.cycles += cycles;
        b.events += 1;
    }

    /// Charges `cycles` (and one event) to a bucket off the retire path:
    /// translation costs and zero-cycle events.
    pub fn charge(&mut self, region: u32, pc: u32, category: Category, cycles: u64) {
        self.spill.charge(region, pc, category, cycles);
    }

    /// Folds the dense tables into the ordered ledger of the run.
    #[must_use]
    pub fn finish(self) -> Ledger {
        let mut ledger = self.spill;
        for (pc, slot) in (0u32..).zip(&self.prog) {
            for (category, &b) in Category::ALL.into_iter().zip(&slot.by_cat) {
                if b.events > 0 {
                    ledger.add((slot.region, pc, category), b);
                }
            }
        }
        for (func, table) in &self.micro {
            for (pos, &b) in (0u32..).zip(table) {
                if b.events > 0 {
                    ledger.add_micro(*func, pos, b);
                }
            }
        }
        ledger
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The dense path and the ordered map agree charge for charge,
    /// including second-region and microcode charges.
    #[test]
    fn finish_equals_the_ordered_ledger() {
        let mut r = Recorder::new(8);
        let mut l = Ledger::new();
        r.retire(false, 0, false, 3);
        l.charge(TOP_REGION, 0, Category::ScalarExecute, 3);
        r.set_region(5, false);
        r.retire(false, 5, true, 2);
        l.charge(5, 5, Category::VectorExecute, 2);
        r.retire(false, 0, false, 4); // PC 0 again, under a second region
        l.charge(5, 0, Category::ScalarExecute, 4);
        r.abort_replay(5);
        l.event(5, 5, Category::AbortReplay);
        r.retire(false, 6, false, 1);
        l.charge(5, 6, Category::AbortReplay, 1);
        r.enter_micro(5, 2);
        r.retire(true, 1, true, 7);
        l.add_micro(
            5,
            1,
            Bucket {
                cycles: 7,
                events: 1,
            },
        );
        r.charge(5, 3, Category::McacheProbe, 0);
        l.event(5, 3, Category::McacheProbe);
        r.charge(5, 5, Category::TranslateOverhead, 40);
        l.charge(5, 5, Category::TranslateOverhead, 40);
        let got = r.finish();
        assert_eq!(got, l);
        assert_eq!(got.to_json(), l.to_json());
        assert_eq!(got.total_cycles(), 57);
        assert_eq!(got.micro_cycles(), 7);
        assert_eq!(got.region_totals()[&5].micro_cycles, 7);
    }
}
