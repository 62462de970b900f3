"""Constrained actor-critic toolkit for multi-response session recommendation."""

from .approximator import (ApproxSpec, OptState, forward, gradient, init_opt_state,
                           init_params, input_gradient, optimizer_step)
from .core import (ReplayDataset, State, Trajectory, Transition, load_dataset, save_dataset,
                   td_target)
from .offline import (ISConfig, MultiCriticConfig, NCISConfig, full_trajectory_ratio,
                      multi_critic_train, ncis_evaluate, offline_actor_update_aux,
                      offline_actor_update_main)
from .sim import (ReviewDatasetConfig, SessionSimulator, SimConfig,
                  UniformRandomPolicy, generate_offline_dataset,
                  generate_review_dataset, rollout, run_episode)
from .stochastic import (CriticV, PolicySet, StochasticPolicy, TrainingDiverged,
                         TwoStageConfig, actor_update_aux, actor_update_main,
                         batch_arrays, build_policy_set, critic_update, train_stage_one,
                         train_stage_two, train_two_stage)
from .deterministic import (BCConfig, DDPGConfig, DeterministicPolicy,
                            behavior_clone_update, ddpg_actor_update, q_critic_update,
                            train_behavior_clone, train_constrained_ddpg,
                            train_ddpg_weighted, train_rcpo)

__version__ = "0.1.0"
