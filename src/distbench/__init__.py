"""distbench: distance measures, brute-force KNN and a noise benchmark."""

from . import errors
from .bench import (
    CleanResult,
    CompareRow,
    ExperimentConfig,
    NoiseResult,
    PUBLISHED_TOP,
    RunRecord,
    SkipRecord,
    SummaryRow,
    compare_to_reference,
    parse_config,
    run_clean_phase,
    run_noise_phase,
    summarize,
    top_metrics_from_summary,
)
from .dataset import Dataset, SplitPlan, load_csv, round_half_up, split
from .evaluation import (
    ConfusionMatrix,
    RankRow,
    ScoreTriple,
    accuracy,
    confusion,
    macro_precision,
    macro_recall,
    rank_distances,
    score,
    wilcoxon_rank_sum,
    wilcoxon_signed_rank,
)
from .heap import keep_freed_heap
from .knn import KnnModel, Neighbor, classify, classify_batch, neighbors
from .metrics import (
    Cell,
    Family,
    MetricDescriptor,
    REGISTRY,
    describe,
    evaluate,
    list_metrics,
    pairwise,
    similarity,
)
from .noise import NoiseSpec, inject
from .reports import emit_report, read_records_csv, write_records_csv

__version__ = "0.1.0"
