"""Finite-difference engine for semi-linear parabolic PDEs whose
discretization generates neural building blocks with learnable coefficients."""

from .grid import (BoundaryCondition, GridSpec, dirichlet, extend, make_grid,
                   mirror, pad, pad_coefficient, periodic)
from .reactions import (ReactionSpec, TwoComponentReaction, fisher, gray_scott,
                        linear, no_reaction, sigmoid, sigmoid_reaction, source)
from .stencil import EllipticCoefficients, elliptic_apply
from .solver import (CflReport, DivergenceError, Trajectory, cfl_check,
                     solve_forward, solve_two_component, step_explicit,
                     step_implicit, step_two_component, thomas_solve)
from .blocks import (Conv1DBlock, Conv2DBlock, DenseBlock, RBMEnergy, RNNCell,
                     gen_conv1d, gen_conv2d, gen_dense, gen_rbm, gen_rnn_cell,
                     rbm_free_energy, rnn_forward)
from .optim import (AdamState, LBFGSState, LossSpec, ThetaVector, adam_step,
                    gauss_newton_step, grad_fd, lbfgs_direction, lbfgs_update,
                    newton_pinv_step, sgd_step)
from .train import (Dataset, DenseLayer, DiffusionLayer, OptimizerConfig,
                    Pipeline, TrainReport, batch_gradient, batch_loss,
                    train_supervised)
from .reference import (GaussianProfile, fisher_min_front_speed, front_position,
                        front_speed, heat_kernel_evolve)

__version__ = "0.1.0"
