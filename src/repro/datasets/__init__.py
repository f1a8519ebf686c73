"""Synthetic data-set generators mirroring the paper's workloads.

The paper evaluates COGRA on two real data sets (PAMAP2 physical-activity
monitoring and EODData stock transactions) and one synthetic public
transportation data set.  The real data sets are not redistributable, so
this package generates synthetic streams with the same schemas and the same
workload-relevant properties (number of groups, event type mixture,
attribute monotonicity and selectivity); each generator's module docstring
names the properties of the original it keeps.
"""

from repro.datasets.generators import StreamConfig, random_walk, seeded_rng
from repro.datasets.io import (
    read_eoddata_csv,
    read_pamap2_file,
    read_stream_csv,
    replicate_stream,
    write_eoddata_csv,
    write_pamap2_file,
    write_stream_csv,
)
from repro.datasets.statistics import (
    StreamStatistics,
    adjacent_selectivity,
    describe_stream,
    events_per_group,
    load_imbalance,
    type_mixture,
    window_event_counts,
)
from repro.datasets.physical_activity import (
    PhysicalActivityConfig,
    generate_physical_activity_stream,
)
from repro.datasets.stock import StockConfig, generate_stock_stream
from repro.datasets.transportation import (
    TransportationConfig,
    generate_transportation_stream,
)
from repro.datasets.ridesharing import RidesharingConfig, generate_ridesharing_stream
from repro.datasets.queries import (
    healthcare_query,
    ridesharing_query,
    running_example_query,
    running_example_stream,
    stock_query,
    stock_trend_query,
    transportation_query,
)

__all__ = [
    "PhysicalActivityConfig",
    "RidesharingConfig",
    "StockConfig",
    "StreamConfig",
    "StreamStatistics",
    "TransportationConfig",
    "adjacent_selectivity",
    "describe_stream",
    "events_per_group",
    "generate_physical_activity_stream",
    "generate_ridesharing_stream",
    "generate_stock_stream",
    "generate_transportation_stream",
    "healthcare_query",
    "load_imbalance",
    "random_walk",
    "read_eoddata_csv",
    "read_pamap2_file",
    "read_stream_csv",
    "replicate_stream",
    "ridesharing_query",
    "running_example_query",
    "running_example_stream",
    "seeded_rng",
    "stock_query",
    "stock_trend_query",
    "transportation_query",
    "type_mixture",
    "window_event_counts",
    "write_eoddata_csv",
    "write_pamap2_file",
    "write_stream_csv",
]
