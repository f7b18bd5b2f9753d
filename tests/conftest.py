import numpy as np
import pytest

import advclr as A
from advclr import data, training
from advclr import tensor as T
from advclr.models import ModelParams
from advclr.tensor import Tensor


TOY_SPEC = A.EncoderSpec("toy_conv", (8, 16, 32))


@pytest.fixture(scope="session")
def toy_data():
    """Small separable dataset shared across the slower fixtures."""
    train = data.make_synthetic(10, 100, 16, seed=0, split="train")
    test = data.make_synthetic(10, 50, 16, seed=0, split="test")
    return train, test


@pytest.fixture(scope="session")
def toy_baseline(toy_data):
    """Cross-entropy-trained toy model (decent clean accuracy, not robust)."""
    train, _ = toy_data
    cfg = training.SupervisedConfig(epochs=5, batch_size=128, lr0=0.05, seed=0,
                                    augment=data.AugmentPolicy(crop_pad=2))
    params, _ = training.supervised_train(train, TOY_SPEC, cfg)
    return params


@pytest.fixture(scope="session")
def toy_act(toy_data):
    """ACT-pretrained encoder plus fine-tuned linear probe."""
    train, _ = toy_data
    pgd_view, cw_view = training.default_view_attacks(0.04, num_steps=4)
    pre = training.PretrainConfig(epochs=6, batch_size=128, lr0=0.1, seed=0,
                                  pgd_view=pgd_view, cw_view=cw_view,
                                  augment=data.AugmentPolicy(crop_pad=2))
    encoder, _ = training.act_pretrain(train, TOY_SPEC, pre)
    probe, _ = training.finetune(train, encoder, train.num_classes,
                                 training.FinetuneConfig(epochs=25, lr=0.01, seed=0))
    return encoder, probe


@pytest.fixture()
def random_model():
    return A.init_params(TOY_SPEC, 10, seed=99)


# --- whole-network gradient oracle (acceptance criterion 1) ----------------


def flatten_arrays(params: ModelParams) -> np.ndarray:
    """All weights packed into one vector, in sorted-name order."""
    return np.concatenate([params.arrays[k].reshape(-1)
                           for k in sorted(params.arrays)])


def lift_from_vector(theta: Tensor, params: ModelParams) -> dict[str, Tensor]:
    """Split a packed weight vector tensor back into named weight tensors.

    Inverse of :func:`flatten_arrays`; used to differentiate a whole forward
    pass with respect to every weight at once.
    """
    lifted = {}
    offset = 0
    for name in sorted(params.arrays):
        shape = params.arrays[name].shape
        count = int(np.prod(shape)) if shape else 1
        lifted[name] = T.reshape(T.slice_rows(theta, offset, offset + count), shape)
        offset += count
    if offset != theta.data.size:
        raise T.ShapeError(f"packed vector has {theta.data.size} entries, "
                           f"weights need {offset}")
    return lifted
