"""Zero-shot whole-slide classification over precomputed patch embeddings.

Pipeline: representative-patch selection, local window attention with
relative positional bias, gated multi-head fusion, temperature-scaled cosine
classification against textual class prototypes, and coordinate-aware
slide-level aggregation. Training is plain numpy with hand-derived gradients
checked against a finite-difference oracle.
"""

from .aggregation import SlidePrediction
from .attention import (
    WindowClass,
    WindowLayout,
    occupancy_classes,
    partition_coords,
    window_attention,
    window_attention_backward,
)
from .data import (
    ClassPrototype,
    PrototypeSet,
    SlideRecord,
    SyntheticConfig,
    coarse_prototypes,
    gen_synthetic,
    load_prototypes,
    load_slide,
    save_prototypes,
    save_slide,
)
from .metrics import (
    EvalRecord,
    auroc_ovr,
    balanced_accuracy,
    binary_auroc,
    confusion_matrix,
    f1_scores,
)
from .params import (
    ModelParams,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .prototypes import (
    DescriptionTriple,
    interclass_distance,
    mean_description_embedding,
    normalize_prototypes,
    render_description,
    render_prompt,
)
from .selection import SelectionStrategy, select_patches
from .training import (
    TrainConfig,
    adamw_step,
    desk_profile,
    finite_diff_check,
    forward_slide,
    forward_slides,
    grad_total_loss,
    paper_profile,
    random_instance,
    total_loss,
    train,
)

__version__ = "0.1.0"
