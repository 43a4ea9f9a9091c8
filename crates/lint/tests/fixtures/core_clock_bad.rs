impl Core {
    pub fn tick(&mut self) -> bool {
        let due = std::time::Instant::now() >= self.next_balance;
        due && self.start_gather()
    }
}
