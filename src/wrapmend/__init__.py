"""Self-repairing web wrappers.

Extraction rules locate nodes with fallback XPath plans; when a page
drifts and integrity constraints start failing, the engine re-locates the
data by tree similarity against a stored example, regenerates locators,
and versions the result.
"""

from wrapmend.constraints import (
    CardinalityConstraint,
    CardinalityViolation,
    DatatypeConstraint,
    DatatypeViolation,
    Violation,
    validate_results,
)
from wrapmend.dom import (
    DomNode,
    DomTree,
    NodePath,
    ParseError,
    PathError,
    ancestor,
    detach_subtree,
    enumerate_subtrees,
    parse_html,
    parse_snippet,
    read_page,
    resolve,
    serialize,
)
from wrapmend.engine import (
    AdaptationFailed,
    AdaptationReport,
    ExecutionContext,
    ExtractionResult,
    Unsatisfiable,
    adapt_rule,
    execute_wrapper,
    page_status,
    threshold_search,
)
from wrapmend.matching import (
    Labeler,
    RankedCandidate,
    best_matches,
    normalized_stm,
    simple_tree_matching,
    weighted_tree_matching,
)
from wrapmend.metrics import EvalOutcome, compute_metrics
from wrapmend.model import (
    AdaptationConfig,
    Rule,
    StoredExample,
    Wrapper,
    WrapperFormatError,
    capture_example,
    load_wrapper,
    save_wrapper,
    wrapper_from_dict,
)
from wrapmend.mutate import MutationSpec, mutate_tree
from wrapmend.repo import (
    ConflictError,
    CorruptionError,
    NotFoundError,
    Snapshot,
    StorageError,
    VersionRecord,
    WrapperStore,
    run_snapshot,
)
from wrapmend.template import (
    GeneralizeError,
    TreeTemplate,
    generalize,
    refine,
    template_from_tree,
    template_match,
)
from wrapmend.xpath import (
    AnchorPoint,
    FallbackPlan,
    PlanEntry,
    PlanExhausted,
    Step,
    XPathError,
    XPathExpr,
    apply_plan,
    detect_anchors,
    evaluate,
    generate_plan,
    parse_xpath,
)

__version__ = "0.1.0"
