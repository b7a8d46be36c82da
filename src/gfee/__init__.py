"""Graph fusion encoder embedding: supervised multi-graph vertex embedding
with SBM generators, a k-NN evaluation harness and spectral baselines."""

from .graph import (
    DenseGraph,
    EdgeList,
    GraphCollection,
    LabelVector,
    as_labels,
    class_counts,
    read_edgelist,
    read_labels,
    read_vertex_ids,
    validate_collection,
)
from .embedding import (
    build_encoder,
    embed_graph,
    export_binary,
    export_csv,
    fuse,
    load_binary,
)
from .classify import (
    ErrorReport,
    EvalProtocol,
    cross_validate,
    cross_validate_embedding,
    knn_predict,
    stratified_folds,
)
from .sbm import (
    BlockSpec,
    DegreeLaw,
    coincident_groups,
    is_identifiable,
    named_spec,
    normalized_blocks,
    sample_collection,
    sample_graph,
    sample_labels,
)
from .baselines import (
    best_d_error,
    mase_embed,
    omnibus_embed,
    sweep_embeddings,
    top_eigenpairs,
    truncated_svd,
    use_embed,
)
from .ingest import (
    attributes_to_similarity_matrix,
    binarize,
    intersect_vertices,
    load_manifest,
    read_attributes,
)
from .experiments import (
    prior_coin_floor,
    run_baseline,
    run_simulation,
    class_mean_deviation,
    verify_theorems,
    write_gnuplot,
    write_table,
)

__version__ = "0.1.0"
