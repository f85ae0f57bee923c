//! The bushy planner's search space, pinned: on nine graph shapes the plan
//! cost (to the bit), the number of planned subsets and the number of
//! `getPlanCost` calls are the values the Cascades memo search produced
//! before the dense subset DP replaced it — a connected-or-under-the-cap
//! split of two planned subsets is a candidate exactly once, whichever
//! way the search reaches it.

use raqo_catalog::{QuerySpec, RandomSchema};
use raqo_cost::SimOracleCost;
use raqo_planner::coster::FixedResourceCoster;
use raqo_planner::{CascadesConfig, CascadesPlanner};

#[test]
fn nine_shapes_cost_subsets_and_calls_match_the_memo_search() {
    type Shape = fn(usize, u64) -> RandomSchema;
    let (chain, star, clique): (Shape, Shape, Shape) =
        (RandomSchema::chain, RandomSchema::star, RandomSchema::clique);
    // (shape, n, cost, planned subsets, coster calls)
    let want: [(&str, Shape, usize, f64, usize, u64); 9] = [
        ("chain", chain, 8, 77.98250157986354, 36, 84),
        ("star", star, 8, 82.43921547255854, 135, 448),
        ("clique", clique, 8, 72.06651685856562, 255, 3025),
        ("chain", chain, 10, 106.04077224724813, 55, 165),
        ("star", star, 10, 122.63376431688653, 521, 2304),
        ("clique", clique, 10, 92.59660007741323, 1023, 28501),
        ("chain", chain, 12, 133.2336721567591, 78, 286),
        ("star", star, 12, 282.6234021154767, 2059, 11264),
        ("clique", clique, 12, 113.39938700370031, 4095, 261625),
    ];
    let model = SimOracleCost::hive();
    for (name, shape, n, cost, groups, calls) in want {
        let schema = shape(n, 7);
        let query = QuerySpec::new("q", schema.catalog.table_ids().collect());
        let mut coster = FixedResourceCoster::new(&model, 40.0, 8.0);
        let out = CascadesPlanner::plan(
            &schema.catalog,
            &schema.graph,
            &query,
            &mut coster,
            &CascadesConfig::default(),
        )
        .unwrap();
        assert_eq!(
            out.planned.cost.to_bits(),
            cost.to_bits(),
            "{name}{n}: cost {} != {cost}",
            out.planned.cost
        );
        assert_eq!(out.groups, groups, "{name}{n}: planned subsets");
        assert_eq!(coster.calls, calls, "{name}{n}: getPlanCost calls");
        assert_eq!(out.expressions as u64, calls, "{name}{n}: candidates costed once each");
        assert_eq!(out.tasks, (1u64 << n) - n as u64 - 1, "{name}{n}: subsets visited");
    }
}
