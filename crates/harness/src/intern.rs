//! The executor's table of programs (DESIGN.md §13).
//!
//! A figure runs the same program many times: Figure 6 runs every
//! kernel under 8 variants and 2 attack models, so one program reaches
//! the [`Executor`](crate::runner::Executor) 16 times, as in-process
//! requests or as `sdo-serve` lines. [`ProgramTable`] keeps each program
//! under the `name` and `asm` strings of its wire line, with the
//! [`KeyPrefix`] of its canonical encoding once a run is keyed from it.
//! The executor finds a run's first program in the table by `Program ==`,
//! which compares the shared copy-on-write image by pointer first, and
//! finishes the run's key from the held prefix; a program the table
//! lacks is hashed and held under its name and disassembly, the strings
//! its canonical line carries. The daemon decodes lines through the same
//! table: [`Request::parse_interned`](crate::proto::Request::parse_interned)
//! compares a line's `data` array with a held program's canonical
//! rendering as it reads it, chunk by chunk as the writer hands the
//! rendering over, and on an exact match takes the held program instead
//! of decoding the array. So a repeated image is neither decoded nor
//! hashed again.
//!
//! A held program is exactly the one the line would decode to. Its
//! `name` and `asm` strings are equal, so `parse_asm` would build the
//! same instructions; its assembly wrote no data (only such programs are
//! held, and a disassembly writes none), so its image is the line's
//! `[addr, byte]` writes; and those bytes are the image's canonical
//! rendering, which decodes back to the image. A program held under its
//! disassembly also relies on `parse_asm` rebuilding its instructions
//! from it, which `crates/workloads/tests/roundtrip.rs` pins for every
//! in-tree program.

use crate::proto::write_data;
use crate::store::KeyPrefix;
use sdo_isa::{Program, MAX_PARSED_PAGES, PAGE_BYTES};
use sdo_uarch::json::Reader;

/// Programs held per `name` and `asm`. A line is compared with each of
/// them a chunk of the held program's rendering at a time, each
/// comparison stopping at the first chunk that differs from the line or
/// runs past its end, so a line costs at most this many times its own
/// length plus one chunk per candidate to recognise.
const IMAGES_PER_TEXT: usize = 4;

/// A bounded table of programs with their key prefixes.
///
/// An entry is charged its image pages plus the 4 KiB pages its `name`,
/// `asm` and instructions fill, at least one. The entries are charged at
/// most [`MAX_PARSED_PAGES`] pages between them, so the table holds at
/// most 16 MiB of images; past it the least recently used entries are
/// dropped, as is the least recently used of the four programs held for
/// one `name` and `asm` when a fifth arrives.
#[derive(Debug, Default, Clone)]
pub(crate) struct ProgramTable {
    entries: Vec<Entry>,
    /// Pages the entries are charged between them.
    pages: usize,
    /// Stamp of the latest lookup or insertion.
    clock: u64,
    /// Programs taken from the table instead of decoded.
    hits: u64,
}

#[derive(Debug, Clone)]
struct Entry {
    name: String,
    asm: String,
    program: Program,
    /// The key prefix, once a run has been keyed from the program.
    prefix: Option<KeyPrefix>,
    /// Pages the entry is charged.
    cost: usize,
    /// Stamp of the entry's latest use.
    used: u64,
}

impl ProgramTable {
    /// An empty table.
    #[must_use]
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// If the reader's next value is the canonical `data` rendering of a
    /// held program decoded from `name` and `asm`, consumes it and
    /// returns that program. Otherwise nothing is consumed.
    pub(crate) fn recognise(&mut self, r: &mut Reader, name: &str, asm: &str) -> Option<Program> {
        self.clock += 1;
        // A data array nests two deep: the array and its pairs.
        let entry = self.entries.iter_mut().find(|e| {
            e.name == name
                && e.asm == asm
                && r.skip_if_rendered(2, |out| write_data(e.program.data(), out))
        })?;
        entry.used = self.clock;
        self.hits += 1;
        Some(entry.program.clone())
    }

    /// Holds `program`, decoded from `name`, `asm` and a `data` array
    /// (its assembly wrote no data). An equal program already held, from
    /// another spelling of its line, is kept once.
    pub(crate) fn intern(&mut self, name: &str, asm: &str, program: &Program) {
        self.clock += 1;
        match self
            .entries
            .iter_mut()
            .find(|e| e.name == name && e.asm == asm && e.program.data() == program.data())
        {
            Some(entry) => entry.used = self.clock,
            None => self.hold(name, asm, program, None),
        }
    }

    /// The key prefix of `program`: the held one's, or else computed and
    /// held with `program` under its name and disassembly.
    pub(crate) fn prefix(&mut self, program: &Program) -> KeyPrefix {
        self.clock += 1;
        if let Some(entry) = self.entries.iter_mut().find(|e| e.program == *program) {
            entry.used = self.clock;
            return entry.prefix.get_or_insert_with(|| KeyPrefix::of(Some(program))).clone();
        }
        let prefix = KeyPrefix::of(Some(program));
        self.hold(program.name(), &program.disassemble(), program, Some(prefix.clone()));
        prefix
    }

    /// Adds an entry, evicting the least recently used ones it displaces.
    /// A program charged more than the whole table is not held.
    fn hold(&mut self, name: &str, asm: &str, program: &Program, prefix: Option<KeyPrefix>) {
        let text = name.len() + asm.len() + std::mem::size_of_val(program.instructions());
        let cost = (program.data().pages().len() + text.div_ceil(PAGE_BYTES)).max(1);
        if cost > MAX_PARSED_PAGES {
            return;
        }
        let same_text = |e: &Entry| e.name == name && e.asm == asm;
        if self.entries.iter().filter(|e| same_text(e)).count() >= IMAGES_PER_TEXT {
            self.evict(same_text);
        }
        while self.pages + cost > MAX_PARSED_PAGES && self.evict(|_| true) {}
        self.pages += cost;
        self.entries.push(Entry {
            name: name.to_string(),
            asm: asm.to_string(),
            program: program.clone(),
            prefix,
            cost,
            used: self.clock,
        });
    }

    /// Drops the least recently used entry `pick` selects, if any.
    fn evict(&mut self, pick: impl Fn(&Entry) -> bool) -> bool {
        let lru =
            self.entries.iter().enumerate().filter(|(_, e)| pick(e)).min_by_key(|(_, e)| e.used);
        let Some((lru, _)) = lru else { return false };
        self.pages -= self.entries.swap_remove(lru).cost;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{rv32_workloads, sensitivity_kernel};
    use crate::proto::Request;
    use crate::runner::{expand_grid, Executor};
    use crate::store::RunKey;
    use crate::{RunRequest, SimConfig, Variant};
    use sdo_mem::CacheLevel;
    use sdo_uarch::AttackModel;
    use sdo_workloads::kernels::{hash_lookup, l1_resident, stream};
    use sdo_workloads::{suite, Workload};

    /// Readings of the table for the tests.
    impl ProgramTable {
        /// Pages the entries are charged between them; never more than
        /// [`MAX_PARSED_PAGES`].
        pub(crate) fn pages(&self) -> usize {
            self.pages
        }

        /// Number of programs held.
        pub(crate) fn len(&self) -> usize {
            self.entries.len()
        }

        /// Whether the table holds no program.
        pub(crate) fn is_empty(&self) -> bool {
            self.entries.is_empty()
        }

        /// Programs taken from the table instead of decoded so far.
        pub(crate) fn hits(&self) -> u64 {
            self.hits
        }
    }

    /// A `halt` program named `name` with one byte on each of `pages`
    /// pages starting at page `first`.
    fn paged(name: &str, first: u64, pages: u64) -> Program {
        let mut program = sdo_isa::parse_asm("halt").unwrap();
        program.set_name(name);
        for page in first..first + pages {
            program.data_mut().set_byte(page << sdo_isa::PAGE_SHIFT, 1);
        }
        program
    }

    fn run_line(request: RunRequest) -> String {
        Request::Run { id: 1, request, no_cache: false }.render()
    }

    #[test]
    fn the_table_never_holds_more_than_its_page_budget() {
        let mut table = ProgramTable::new();
        let quarter = MAX_PARSED_PAGES as u64 / 4;
        let lines: Vec<String> = (0..12)
            .map(|i| run_line(RunRequest::program(&paged(&format!("p{i}"), i * quarter, quarter))))
            .collect();
        // Each program is charged a quarter of the budget and a page for
        // its text, so three fit at a time; the first stays in use.
        let base = SimConfig::tiny();
        for (i, line) in lines.iter().enumerate() {
            let request = Request::parse_interned(line, &mut table).unwrap();
            assert_eq!(request, Request::parse(line).unwrap());
            let Request::Run { request, .. } = request else { unreachable!() };
            let (len, key) = (table.len(), table.prefix(&request.programs[0]).key(&request, base));
            assert_eq!(key, RunKey::of(&request, base), "line {i}");
            assert_eq!(table.len(), len, "line {i} was interned");
            assert!(table.pages() <= MAX_PARSED_PAGES, "{} pages after line {i}", table.pages());
            assert!(table.len() <= 3);
            let hits = table.hits();
            Request::parse_interned(&lines[0], &mut table).unwrap();
            assert_eq!(table.hits(), hits + 1, "the most recently used program stays held");
        }
        assert_eq!(table.len(), 3);
        // An evicted program decodes again, and is held again.
        let hits = table.hits();
        let request = Request::parse_interned(&lines[5], &mut table).unwrap();
        assert_eq!(request, Request::parse(&lines[5]).unwrap());
        assert_eq!(table.hits(), hits);
        Request::parse_interned(&lines[5], &mut table).unwrap();
        assert_eq!(table.hits(), hits + 1);
        // A program charged more than the whole table is not held, but
        // its prefix still finishes its key.
        let whole = paged("whole", 0, MAX_PARSED_PAGES as u64);
        let line = run_line(RunRequest::program(&whole));
        let request = Request::parse_interned(&line, &mut table).unwrap();
        let Request::Run { request, .. } = request else { unreachable!() };
        let prefix = table.prefix(&request.programs[0]);
        assert_eq!(prefix.key(&request, base), RunKey::of(&request, base));
        assert!(table.pages() <= MAX_PARSED_PAGES);
        assert_eq!(table.len(), 3);
    }

    #[test]
    fn held_pages_are_charged_to_the_request_as_decoded_ones_are() {
        let mut table = ProgramTable::new();
        let big = paged("big", 0, 3000);
        Request::parse_interned(&run_line(RunRequest::program(&big)), &mut table).unwrap();
        // Twice the held program is over one request's budget, held or not.
        let twice = run_line(RunRequest::multi(&[big.clone(), big]));
        let want = Request::parse(&twice).unwrap_err();
        assert!(want.contains("over the 4096 a request may hold"), "{want}");
        let hits = table.hits();
        assert_eq!(Request::parse_interned(&twice, &mut table).unwrap_err(), want);
        assert_eq!(table.hits(), hits + 2, "both programs were taken from the table");
    }

    #[test]
    fn a_program_whose_assembly_writes_data_is_not_held() {
        // The line's zero write clears the assembly's byte, so the image
        // is empty; an empty `data` array would decode to the byte.
        let line = |data: &str| {
            format!(
                r#"{{"op":"run","id":1,"request":{{"programs":[{{"name":"t","asm":".byte 0x10 5\nhalt","data":{data}}}],"prewarm":[],"variant":"unsafe","attack":"spectre","config":null,"seed":0,"record":false}}}}"#
            )
        };
        let mut table = ProgramTable::new();
        for data in ["[[16,0]]", "[]", "[[16,0]]"] {
            let got = Request::parse_interned(&line(data), &mut table).unwrap();
            assert_eq!(got, Request::parse(&line(data)).unwrap(), "data {data}");
        }
        assert!(table.is_empty());
        assert_eq!(table.hits(), 0);
        // Keying the program holds it under its disassembly, which writes
        // no data: its canonical line is then recognised, and decodes as
        // a fresh decoder decodes it.
        let Request::Run { request, .. } = Request::parse(&line("[[16,0]]")).unwrap() else {
            unreachable!()
        };
        let base = SimConfig::tiny();
        let prefix = table.prefix(&request.programs[0]);
        assert_eq!(prefix.key(&request, base), RunKey::of(&request, base));
        assert_eq!(table.len(), 1);
        let canonical = run_line(request);
        assert!(canonical.contains(r#""asm":"     0: halt\n","data":[]"#), "{canonical}");
        let got = Request::parse_interned(&canonical, &mut table).unwrap();
        assert_eq!(got, Request::parse(&canonical).unwrap());
        assert_eq!(table.hits(), 1);
    }

    #[test]
    fn a_name_and_asm_hold_a_bounded_number_of_images() {
        let mut table = ProgramTable::new();
        let lines: Vec<String> =
            (0..8).map(|i| run_line(RunRequest::program(&paged("p", i, 1)))).collect();
        for line in &lines {
            Request::parse_interned(line, &mut table).unwrap();
        }
        assert_eq!(table.len(), IMAGES_PER_TEXT);
        // The latest four are held; the earlier ones decode again.
        for i in (4..8).chain(0..4) {
            let hits = table.hits();
            let request = Request::parse_interned(&lines[i], &mut table).unwrap();
            assert_eq!(request, Request::parse(&lines[i]).unwrap());
            assert_eq!(table.hits() - hits, u64::from(i >= 4), "line {i}");
        }
        assert_eq!(table.len(), IMAGES_PER_TEXT);
    }

    /// The executor's keys for `requests`, each checked against
    /// `RunKey::of`.
    fn check_keys(
        exec: &Executor,
        requests: &[RunRequest],
        base: SimConfig,
        what: &str,
    ) -> Vec<Option<RunKey>> {
        let runs: Vec<(&RunRequest, bool)> = requests.iter().map(|r| (r, false)).collect();
        let keys = exec.keys(&runs);
        for (k, (request, key)) in requests.iter().zip(&keys).enumerate() {
            assert_eq!(*key, Some(RunKey::of(request, base)), "{what}, run {k}");
        }
        keys
    }

    #[test]
    fn keys_finished_from_held_prefixes_equal_runkey_of() {
        // The shapes of the runs and grids the daemon tests send (every
        // variant, hanging and panicking configs, a multi-core request,
        // two-by-two grids and the sensitivity sweep's ROB and MSHR
        // points), a warmed large image, and requests no override reaches.
        let prog = l1_resident(120, 1);
        let mut wide = SimConfig::tiny();
        wide.core.rob_entries *= 2;
        let (mut hang, mut no_rob) = (SimConfig::tiny(), SimConfig::tiny());
        hang.max_cycles = 10;
        no_rob.core.rob_entries = 0;
        let mut sweep = Vec::new();
        for (rob, mshrs) in [(64, 4), (192, 16)] {
            let (mut a, mut b) = (SimConfig::tiny(), SimConfig::tiny());
            a.core.rob_entries = rob;
            b.mem.l1.mshrs = mshrs;
            sweep.extend([a, b]);
        }
        let run = |request: RunRequest| Request::Run { id: 0, request, no_cache: false };
        let mut requests: Vec<Request> =
            Variant::ALL.iter().map(|&v| run(RunRequest::program(&prog).variant(v))).collect();
        requests.extend([
            run(RunRequest::program(&l1_resident(60, 1)).variant(Variant::Hybrid)),
            run(RunRequest::program(&l1_resident(200, 1)).config(hang)),
            run(RunRequest::program(&l1_resident(60, 1)).config(no_rob)),
            run(RunRequest::multi(&[prog.clone(), l1_resident(20, 2)])),
        ]);
        for (configs, variants) in [
            (vec![SimConfig::tiny(), wide], vec![Variant::Unsafe, Variant::SttLd]),
            (vec![hang, SimConfig::tiny()], vec![Variant::Unsafe]),
            (sweep, Variant::ALL.to_vec()),
        ] {
            requests.push(Request::Grid {
                id: 1,
                request: RunRequest::program(&prog),
                configs,
                variants,
                no_cache: false,
            });
        }
        requests.push(Request::Run {
            id: 2,
            request: RunRequest::program(&hash_lookup(1024, 100, 3))
                .warmed(0x80_0000, 8 << 10, CacheLevel::L3)
                .config(SimConfig::table_i())
                .seed(9),
            no_cache: true,
        });
        requests.push(Request::Run {
            id: 3,
            request: RunRequest::program(&stream(64, 1, 3)).variant(Variant::Hybrid),
            no_cache: false,
        });
        let base = SimConfig::tiny();
        let exec = Executor::new(base, None);
        // As the daemon decodes and keys them: the first pass interns
        // each program, the second takes it.
        let mut hits = 0;
        for pass in 0..2 {
            hits = exec.programs().hits();
            for message in &requests {
                let line = message.render();
                let parsed = exec.parse(&line).unwrap();
                assert_eq!(&parsed, message);
                let points = match parsed {
                    Request::Run { request, .. } => vec![request],
                    Request::Grid { request, configs, variants, .. } => {
                        expand_grid(&request, &configs, &variants)
                    }
                    other => unreachable!("{other:?}"),
                };
                check_keys(&exec, &points, base, &format!("pass {pass}"));
            }
        }
        let programs = requests.iter().map(|message| match message {
            Request::Run { request, .. } | Request::Grid { request, .. } => request.programs.len(),
            _ => 0,
        });
        let hits = exec.programs().hits() - hits;
        assert_eq!(hits, programs.sum::<usize>() as u64, "the second pass took all");

        // As `--store` keys them in process: fig6's suite under every
        // variant and attack model, attack-major as `run_suite_on` orders
        // it, then the RV32 workloads and the sensitivity sweep's points.
        let exec = Executor::new(base, None);
        let runs = |kernels: &[Workload]| -> Vec<RunRequest> {
            let mut runs = Vec::new();
            for attack in AttackModel::ALL {
                for w in kernels {
                    let run = |v| RunRequest::workload(w).variant(v).attack(attack);
                    runs.extend(Variant::ALL.map(run));
                }
            }
            runs
        };
        let kernels = suite();
        let suite_runs = runs(&kernels);
        let keys = check_keys(&exec, &suite_runs, base, "suite");
        assert_eq!(exec.programs().len(), kernels.len(), "one entry per suite kernel");
        let again: Vec<(&RunRequest, bool)> = suite_runs.iter().map(|r| (r, false)).collect();
        assert_eq!(exec.keys(&again), keys, "a second pass keys alike");
        assert_eq!(exec.programs().len(), kernels.len(), "and adds no entry");
        let rv32 = rv32_workloads();
        check_keys(&exec, &runs(&rv32), base, "rv32");
        let kernel = sensitivity_kernel();
        let mut points = Vec::new();
        for rob in [64, 128, 192, 256] {
            let mut cfg = SimConfig::table_i();
            cfg.core.rob_entries = rob;
            cfg.core.lq_entries = (rob / 6).max(8);
            cfg.core.sq_entries = (rob / 6).max(8);
            points.push(cfg);
        }
        for mshrs in [4, 8, 16, 32] {
            let mut cfg = SimConfig::table_i();
            (cfg.mem.l1.mshrs, cfg.mem.l2.mshrs, cfg.mem.l3.mshrs) = (mshrs, mshrs, mshrs);
            points.push(cfg);
        }
        let template = RunRequest::workload(&kernel).attack(AttackModel::Spectre);
        let variants = [Variant::Unsafe, Variant::SttLd, Variant::Hybrid];
        let sweep = expand_grid(&template, &points, &variants);
        check_keys(&exec, &sweep, base, "sensitivity");
        let held = kernels.len() + rv32.len() + 1;
        assert_eq!(exec.programs().len(), held, "one entry per distinct program");
        // Each program is held under its disassembly, so its canonical
        // line is recognised and decodes as a fresh decoder decodes it.
        for w in kernels.iter().chain(&rv32).chain([&kernel]) {
            let line = run_line(RunRequest::workload(w));
            let hits = exec.programs().hits();
            assert_eq!(exec.parse(&line).unwrap(), Request::parse(&line).unwrap(), "{}", w.name());
            assert_eq!(exec.programs().hits(), hits + 1, "{} was recognised", w.name());
        }

        // A grid over a program charged more than the whole table, which
        // the table cannot hold.
        let whole = paged("whole", 0, MAX_PARSED_PAGES as u64);
        let grid = expand_grid(&RunRequest::program(&whole), &points[..2], &variants[1..]);
        check_keys(&exec, &grid, base, "a grid over a program larger than the table");
        assert_eq!(exec.programs().len(), held);
    }
}
