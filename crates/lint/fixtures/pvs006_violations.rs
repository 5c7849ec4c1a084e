use std::sync::mpsc::Receiver;


pub fn total(rx: &Receiver<f64>) -> f64 {
    let mut sum = 0.0;
    while let Ok(x) = rx.try_recv() {
        sum += x;
    }
    sum
}

pub fn weighted(rx: &Receiver<(u32, f64)>) -> f64 {
    // Drains in arrival order, which is whatever order the senders
    // happened to run in.
    let mut acc = 0.0;
    for (_k, v) in rx.try_iter() {
        acc += v;
    }
    acc
}
