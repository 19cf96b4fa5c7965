//! Environment knobs other tools read must not change the benchmark's
//! load. A test binary of its own: it mutates the process environment.

use mopac_perfbench::{cells, Budget, Pass, Workload, IGNORED_ENV};

#[test]
fn environment_knobs_do_not_change_the_load() {
    let digests = || Workload::ALL.map(|w| Pass::run(&cells(w, 9, &Budget::SMOKE), false).digest());
    let before = digests();
    for (i, key) in IGNORED_ENV.iter().enumerate() {
        std::env::set_var(key, ["3", "4", "1234", "77", "1"][i]);
    }
    assert_eq!(before, digests());
}
