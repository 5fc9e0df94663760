"""Expected information flow maximization in probabilistic graphs.

A probabilistic graph has edges that exist independently with known
probabilities.  This package selects a budgeted set of edges maximizing the
expected total vertex weight connected to a query vertex, computing flows
through a component tree that keeps sampling local to cyclic components and
everything else analytic.
"""

from .graphs import (
    Edge,
    GraphError,
    ProbabilisticGraph,
    candidate_edges,
    canonical_edge,
    induced_subgraph,
    load_graph,
    save_graph,
)
from .oracle import (
    OracleLimitError,
    exact_expected_flow,
    exact_reachability,
    exhaustive_maxflow,
    expected_flow_of_edges,
)
from .sampling import (
    EXACT_SAMPLES,
    FlowEstimate,
    ReachTable,
    SamplerConfig,
    confidence_interval,
    mc_expected_flow,
    normal_quantile,
    substream,
)
from .ftree import (
    BiComponent,
    FTree,
    FTreeError,
    InsertReport,
    MonoComponent,
    new_ftree,
)
from .selection import (
    IterationRecord,
    Solution,
    StrategyConfig,
    VARIANTS,
    ci_prune,
    dijkstra_select,
    ds_delay,
    greedy_select,
    naive_select,
    run_strategy,
)
from .netgen import (
    GenSpec,
    assign_close_friends,
    assign_distance_decay,
    gen_erdos,
    gen_partitioned,
    gen_wsn,
)

__version__ = "0.1.0"
