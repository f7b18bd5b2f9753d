"""Adversarial-contrastive pretraining and robustness evaluation toolkit."""

from .tensor import Tape, Tensor, ShapeError, NumericError, constant, grad_check
from .data import (AugmentPolicy, DataError, Dataset, augment_batch, batch_iter,
                   load_cifar10, make_synthetic)
from .models import (EncoderSpec, ModelParams, classify, encode, init_params,
                     load_checkpoint, project, save_checkpoint)
from .losses import adv_contrastive, cross_entropy, info_nce
from .attacks import (AttackConfig, AttackContext, attack_objective, cw,
                      fgsm, pgd, project_linf, run_attack)
from .training import (FinetuneConfig, PretrainConfig, SupervisedConfig,
                       TrainLog, act_pretrain, adam_step, cosine_lr, finetune,
                       sgd_momentum_step, supervised_train)
from .evaluation import (EvalCell, EvalReport, clean_accuracy, eval_table,
                         render_reports, reports_to_csv, robust_accuracy)

__version__ = "0.1.0"
