"""The reconstruction network: conv ops (`ops`), the encoder-decoder and
its gradients (`model`), RMSprop (`optim`) and the training loop
(`train`). Import from the defining module."""
